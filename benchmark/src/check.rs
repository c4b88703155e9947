//! Output checking. The checkers take plain data (document text, solve
//! flags, census, response bytes), never workspace types, so the
//! negative controls below can hand them a deliberately broken output
//! without running a simulation.

use crate::api::{digest_bytes, parse_json};

/// One linear solve of an op (`system` 3 is the pressure Poisson solve).
#[derive(Debug, Clone, PartialEq)]
pub struct Solve {
    pub step: usize,
    pub rank: usize,
    pub system: u8,
    pub iterations: usize,
    pub converged: bool,
}

/// What a simulation op produced, as far as checking is concerned.
#[derive(Debug, Clone)]
pub struct SimFacts {
    /// The golden document the op rendered.
    pub doc: String,
    pub solves: Vec<Solve>,
    /// active, deposited, escaped, lost.
    pub census: [usize; 4],
    /// Particles the scenario injected.
    pub particles: usize,
    /// The scenario's iteration cap.
    pub max_iters: usize,
    /// Logical events in the run.
    pub events: usize,
}

impl SimFacts {
    pub fn digest(&self) -> u64 {
        digest_bytes(self.doc.as_bytes())
    }

    pub fn poisson_iters(&self) -> usize {
        self.solves
            .iter()
            .filter(|s| s.system == 3)
            .map(|s| s.iterations)
            .sum()
    }
}

/// Check one simulation op: every solve converged below the iteration
/// cap, the census conserves particles, and the document is byte-equal
/// (by digest of its bytes, computed here) to the workload's first op.
pub fn check_sim_op(facts: &SimFacts, reference_digest: u64) -> Vec<String> {
    let mut bad = Vec::new();
    if facts.solves.is_empty() {
        bad.push("op logged no solves".to_string());
    }
    for s in &facts.solves {
        if !s.converged || s.iterations >= facts.max_iters {
            bad.push(format!(
                "solve step {} rank {} system {} did not converge ({} iterations, cap {})",
                s.step, s.rank, s.system, s.iterations, facts.max_iters
            ));
        }
    }
    let total: usize = facts.census.iter().sum();
    if total != facts.particles {
        bad.push(format!(
            "census {:?} sums to {total}, scenario injected {}",
            facts.census, facts.particles
        ));
    }
    let digest = facts.digest();
    if digest != reference_digest {
        bad.push(format!(
            "document digest {digest:016x} differs from the first op's {reference_digest:016x}"
        ));
    }
    bad
}

/// A reference-layout twin must agree with the optimized run: same
/// census, and event count and Poisson iteration total within 2 %.
pub fn check_twin(opt: &SimFacts, reference: &SimFacts) -> Vec<String> {
    let mut bad = Vec::new();
    if opt.census != reference.census {
        bad.push(format!(
            "reference-layout twin census {:?} != optimized {:?}",
            reference.census, opt.census
        ));
    }
    let within = |a: usize, b: usize| (a as f64 - b as f64).abs() <= 0.02 * (b.max(1) as f64);
    if !within(opt.events, reference.events) {
        bad.push(format!(
            "reference-layout twin logged {} events, optimized {}",
            reference.events, opt.events
        ));
    }
    if !within(opt.poisson_iters(), reference.poisson_iters()) {
        bad.push(format!(
            "reference-layout twin took {} Poisson iterations, optimized {}",
            reference.poisson_iters(),
            opt.poisson_iters()
        ));
    }
    bad
}

/// Check one served result: 200, the expected number of cells, none of
/// them failed, and — when the directly computed report is given —
/// byte-equal to it.
pub fn check_served(status: u16, body: &str, cells: usize, direct: Option<&str>) -> Vec<String> {
    let mut bad = Vec::new();
    if status != 200 {
        bad.push(format!("result status {status}, expected 200"));
        return bad;
    }
    match parse_json(body) {
        Err(e) => bad.push(format!("result is not JSON: {e}")),
        Ok(doc) => {
            let matrix = doc.get("matrix").and_then(|m| m.as_array()).unwrap_or(&[]);
            if matrix.len() != cells
                || doc.get("cells").and_then(|c| c.as_u64()) != Some(cells as u64)
            {
                bad.push(format!(
                    "result has {} cells, expected {cells}",
                    matrix.len()
                ));
            }
            let failed = matrix.iter().filter(|c| c.get("error").is_some()).count();
            if failed > 0 {
                bad.push(format!("{failed} cell(s) failed"));
            }
        }
    }
    if let Some(direct) = direct {
        if body != direct {
            bad.push("served result is not byte-equal to the direct campaign run".to_string());
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_sim() -> SimFacts {
        SimFacts {
            doc: "cfpd golden trace v1\nsummary census active=9 deposited=1 escaped=0 lost=0\n"
                .into(),
            solves: (0..4)
                .map(|system| Solve {
                    step: 0,
                    rank: 0,
                    system,
                    iterations: 17,
                    converged: true,
                })
                .collect(),
            census: [9, 1, 0, 0],
            particles: 10,
            max_iters: 20_000,
            events: 8,
        }
    }

    const GOOD_RESULT: &str = "{\"campaign\":\"j\",\"cells\":2,\"matrix\":[{\"id\":\"a\",\"digest\":\"00\"},{\"id\":\"b\",\"digest\":\"01\"}]}\n";

    #[test]
    fn a_correct_op_and_result_pass() {
        let f = good_sim();
        assert_eq!(check_sim_op(&f, f.digest()), Vec::<String>::new());
        assert_eq!(check_twin(&f, &f), Vec::<String>::new());
        assert_eq!(
            check_served(200, GOOD_RESULT, 2, Some(GOOD_RESULT)),
            Vec::<String>::new()
        );
    }

    // Negative controls: each deliberately wrong output must fail.

    #[test]
    fn one_flipped_byte_in_the_document_is_incorrect() {
        let good = good_sim();
        let mut bytes = good.doc.clone().into_bytes();
        bytes[25] ^= 1;
        let bad = SimFacts {
            doc: String::from_utf8(bytes).unwrap(),
            ..good.clone()
        };
        let report = check_sim_op(&bad, good.digest());
        assert!(report.iter().any(|m| m.contains("digest")), "{report:?}");
    }

    #[test]
    fn an_unconverged_solve_is_incorrect() {
        let mut f = good_sim();
        f.solves[3].converged = false;
        let report = check_sim_op(&f, f.digest());
        assert!(
            report.iter().any(|m| m.contains("did not converge")),
            "{report:?}"
        );
        // Hitting the cap counts as unconverged whatever the flag says.
        let mut f = good_sim();
        f.solves[3].iterations = f.max_iters;
        assert!(!check_sim_op(&f, f.digest()).is_empty());
    }

    #[test]
    fn an_off_by_one_census_is_incorrect() {
        let mut f = good_sim();
        f.census[0] += 1;
        let report = check_sim_op(&f, f.digest());
        assert!(report.iter().any(|m| m.contains("census")), "{report:?}");
    }

    #[test]
    fn a_served_result_with_one_changed_byte_is_incorrect() {
        let changed = GOOD_RESULT.replacen("\"00\"", "\"10\"", 1);
        let report = check_served(200, &changed, 2, Some(GOOD_RESULT));
        assert!(
            report.iter().any(|m| m.contains("byte-equal")),
            "{report:?}"
        );
        assert!(!check_served(409, GOOD_RESULT, 2, None).is_empty());
        assert!(!check_served(200, GOOD_RESULT, 4, None).is_empty());
        let failed = GOOD_RESULT.replacen("\"digest\":\"00\"", "\"error\":\"boom\"", 1);
        assert!(!check_served(200, &failed, 2, None).is_empty());
    }

    #[test]
    fn a_diverging_twin_is_incorrect() {
        let f = good_sim();
        let mut twin = f.clone();
        twin.solves[3].iterations = 40;
        assert!(!check_twin(&f, &twin).is_empty());
    }
}
