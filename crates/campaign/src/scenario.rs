//! The typed layer over the raw DSL: campaign-level settings, the
//! scenario key registry, and the mapping from `key = value` pairs onto
//! [`cfpd_core::Scenario`].
//!
//! Every key usable in `[scenario]` is also usable as a `[matrix]` axis
//! — an axis is just "this key takes each of these values in turn".

use crate::dsl::{self, DslError, RawDoc, RawPair};
use cfpd_core::{ExecutionMode, RunOptions, Scenario, SimulationConfig};
use cfpd_solver::{AssemblyStrategy, LayoutPlan};

/// Every scenario key the DSL understands, in documentation order.
pub const SCENARIO_KEYS: &[&str] = &[
    "ranks", "threads", "generations", "particles", "steps", "seed", "subdomains", "tol",
    "max_iters", "inflow", "dt", "mode", "strategy", "layout", "dlb", "trace", "hetero",
];

/// The most cells a `[matrix]` may ask for (the product of its axes'
/// value counts, before `[exclude]`): a spec is refused before anything
/// is expanded, so a short document cannot ask a daemon for millions of
/// cells. The checked-in campaigns have at most 8.
pub const MAX_MATRIX_CELLS: usize = 1024;

/// The mutable settings a scenario cell is built from: the simulation
/// configuration plus the run shape (`ranks`/`threads`) and the
/// [`RunOptions`] toggles the DSL exposes.
#[derive(Debug, Clone)]
pub struct CellSettings {
    pub ranks: usize,
    pub threads: usize,
    pub config: SimulationConfig,
    pub dlb: bool,
    pub trace: bool,
    /// Heterogeneity profile name (`hetero = mn4_thunder`); resolved to
    /// a [`cfpd_simmpi::RankProfile`] (seeded with the scenario seed)
    /// when the cell materializes.
    pub hetero: Option<String>,
}

impl Default for CellSettings {
    /// The defaults mirror `cfpd golden`: 2 ranks, one thread each,
    /// `SimulationConfig::default()`, everything optional off.
    fn default() -> CellSettings {
        CellSettings {
            ranks: 2,
            threads: 1,
            config: SimulationConfig::default(),
            dlb: false,
            trace: false,
            hetero: None,
        }
    }
}

fn parse_num<T: std::str::FromStr>(pair: &RawPair, what: &str) -> Result<T, DslError> {
    pair.value.parse().map_err(|_| {
        DslError::at(pair.line, format!("invalid {what} for {:?}: {:?}", pair.key, pair.value))
    })
}

fn parse_switch(pair: &RawPair) -> Result<bool, DslError> {
    match pair.value.as_str() {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(DslError::at(
            pair.line,
            format!("invalid value {other:?} for {:?} (expected: off, on)", pair.key),
        )),
    }
}

/// Parse `sync` or `coupled:F+P` (e.g. `coupled:1+1`).
fn parse_mode(pair: &RawPair) -> Result<ExecutionMode, DslError> {
    let v = pair.value.as_str();
    if v == "sync" {
        return Ok(ExecutionMode::Synchronous);
    }
    if let Some(split) = v.strip_prefix("coupled:") {
        if let Some((f, p)) = split.split_once('+') {
            let fluid: usize = f.trim().parse().unwrap_or(0);
            let particles: usize = p.trim().parse().unwrap_or(0);
            if fluid >= 1 && particles >= 1 {
                return Ok(ExecutionMode::Coupled { fluid, particles });
            }
        }
    }
    Err(DslError::at(
        pair.line,
        format!("invalid mode {v:?} (expected: sync, coupled:F+P with F,P >= 1)"),
    ))
}

impl CellSettings {
    /// Apply one `key = value` pair. Unknown keys and malformed values
    /// are errors anchored to the pair's source line.
    pub fn apply(&mut self, pair: &RawPair) -> Result<(), DslError> {
        match pair.key.as_str() {
            "ranks" => {
                self.ranks = parse_num(pair, "rank count")?;
                if self.ranks == 0 {
                    return Err(DslError::at(pair.line, "ranks must be >= 1"));
                }
            }
            "threads" => {
                self.threads = parse_num(pair, "thread count")?;
                if self.threads == 0 {
                    return Err(DslError::at(pair.line, "threads must be >= 1"));
                }
            }
            "generations" => self.config.airway.generations = parse_num(pair, "generation count")?,
            "particles" => self.config.num_particles = parse_num(pair, "particle count")?,
            "steps" => {
                self.config.steps = parse_num(pair, "step count")?;
                if self.config.steps == 0 {
                    return Err(DslError::at(pair.line, "steps must be >= 1"));
                }
            }
            "seed" => self.config.seed = parse_num(pair, "seed")?,
            "subdomains" => self.config.subdomains_per_rank = parse_num(pair, "subdomain count")?,
            "tol" => self.config.solver_tol = parse_num(pair, "tolerance")?,
            "max_iters" => self.config.solver_max_iters = parse_num(pair, "iteration cap")?,
            "inflow" => self.config.inflow_speed = parse_num(pair, "inflow speed")?,
            "dt" => self.config.dt = parse_num(pair, "time step")?,
            "mode" => self.config.mode = parse_mode(pair)?,
            "strategy" => {
                self.config.strategy = match pair.value.as_str() {
                    "atomics" => AssemblyStrategy::Atomics,
                    "coloring" => AssemblyStrategy::Coloring,
                    "multidep" => AssemblyStrategy::Multidep,
                    "serial" => AssemblyStrategy::Serial,
                    other => {
                        return Err(DslError::at(
                            pair.line,
                            format!(
                                "invalid strategy {other:?} (expected: atomics, coloring, \
                                 multidep, serial)"
                            ),
                        ))
                    }
                }
            }
            "layout" => {
                self.config.layout =
                    LayoutPlan::parse(&pair.value).map_err(|e| DslError::at(pair.line, e))?
            }
            "dlb" => self.dlb = parse_switch(pair)?,
            "trace" => self.trace = parse_switch(pair)?,
            "hetero" => {
                // Validate the name now (seed 0 probe) so a typo fails
                // at parse time with the offending line, not mid-run.
                cfpd_hetero::profile_by_name(pair.value.as_str(), 0)
                    .map_err(|e| DslError::at(pair.line, e))?;
                self.hetero = Some(pair.value.clone());
            }
            other => {
                return Err(DslError::at(
                    pair.line,
                    format!("unknown scenario key {other:?} (known: {})", SCENARIO_KEYS.join(", ")),
                ))
            }
        }
        Ok(())
    }

    /// Materialize the run request.
    pub fn to_scenario(&self) -> Scenario {
        let hetero = self.hetero.as_ref().map(|name| {
            cfpd_hetero::profile_by_name(name, self.config.seed)
                .expect("hetero name validated at parse time")
        });
        Scenario {
            config: self.config.clone(),
            ranks: self.ranks,
            threads: self.threads,
            opts: RunOptions {
                dlb: self.dlb,
                trace: self.trace,
                hetero,
                ..Default::default()
            },
        }
    }
}

/// Regression budgets for the baseline comparison (`[budget]`): how far
/// a metric may drift from the baseline before `campaign report` exits
/// nonzero. The default budget is zero everywhere — any drift is a
/// regression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budget {
    /// `digest = exact` (default): any physics-digest change is a
    /// regression. `digest = ignore`: digests are reported but not gated.
    pub digest_exact: bool,
    /// Allowed |delta| in total solver iterations per cell.
    pub iters: u64,
    /// Allowed |delta| per census field per cell.
    pub census: u64,
    /// Allowed |delta| in logical event count per cell.
    pub events: u64,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget { digest_exact: true, iters: 0, census: 0, events: 0 }
    }
}

/// One matrix axis: a scenario key and the values it sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    pub key: String,
    pub values: Vec<String>,
    pub line: usize,
}

/// A fully-validated campaign: base settings, axes, excludes, budget.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    pub name: String,
    /// Worker-pool size for `campaign run` (overridable with `--jobs`).
    pub jobs: usize,
    /// `[scenario]` pairs, kept raw so cells re-apply them in order.
    pub base: Vec<RawPair>,
    pub axes: Vec<Axis>,
    /// Each `[exclude]` section is one conjunction of `key = value`
    /// constraints; a cell matching every constraint of any group is
    /// dropped from the matrix.
    pub excludes: Vec<Vec<RawPair>>,
    pub budget: Budget,
}

impl CampaignSpec {
    /// Parse and validate a campaign document.
    pub fn from_text(text: &str) -> Result<CampaignSpec, DslError> {
        let doc = dsl::parse(text)?;
        CampaignSpec::from_doc(&doc)
    }

    /// Validate a parsed document into a typed campaign.
    pub fn from_doc(doc: &RawDoc) -> Result<CampaignSpec, DslError> {
        for s in &doc.sections {
            if !matches!(s.name.as_str(), "campaign" | "scenario" | "matrix" | "exclude" | "budget")
            {
                return Err(DslError::at(
                    s.line,
                    format!(
                        "unknown section [{}] (known: campaign, scenario, matrix, exclude, budget)",
                        s.name
                    ),
                ));
            }
        }

        let header = doc
            .unique_section("campaign")?
            .ok_or_else(|| DslError::at(0, "missing [campaign] section"))?;
        let mut name = None;
        let mut jobs = 4usize;
        for p in &header.pairs {
            match p.key.as_str() {
                "name" => name = Some(p.value.clone()),
                "jobs" => {
                    jobs = parse_num(p, "job count")?;
                    if jobs == 0 {
                        return Err(DslError::at(p.line, "jobs must be >= 1"));
                    }
                }
                other => {
                    return Err(DslError::at(
                        p.line,
                        format!("unknown [campaign] key {other:?} (known: name, jobs)"),
                    ))
                }
            }
        }
        let name =
            name.ok_or_else(|| DslError::at(header.line, "missing 'name' in [campaign]"))?;

        // Base settings: validate every pair by applying it once.
        let base: Vec<RawPair> = match doc.unique_section("scenario")? {
            Some(s) => s.pairs.clone(),
            None => Vec::new(),
        };
        let mut probe = CellSettings::default();
        for p in &base {
            probe.apply(p)?;
        }

        // Axes: list-valued pairs; every value must parse, no duplicates.
        let mut axes = Vec::new();
        if let Some(matrix) = doc.unique_section("matrix")? {
            for p in &matrix.pairs {
                let values = dsl::split_list(p)?;
                for (i, v) in values.iter().enumerate() {
                    if values[..i].contains(v) {
                        return Err(DslError::at(
                            p.line,
                            format!("duplicate axis value {v:?} for {:?}", p.key),
                        ));
                    }
                    let mut scratch = probe.clone();
                    scratch.apply(&RawPair {
                        key: p.key.clone(),
                        value: v.clone(),
                        line: p.line,
                    })?;
                }
                axes.push(Axis { key: p.key.clone(), values, line: p.line });
            }
            let cells = axes.iter().try_fold(1usize, |n, a| n.checked_mul(a.values.len()));
            if cells.is_none_or(|n| n > MAX_MATRIX_CELLS) {
                let cells = cells.map_or(format!("more than {}", usize::MAX), |n| n.to_string());
                let why = format!("[matrix] asks for {cells} cells, more than {MAX_MATRIX_CELLS}");
                return Err(DslError::at(matrix.line, why));
            }
        }

        // Excludes: every key must be an axis, every value one of the
        // axis's declared values (an exclude that can never match is a
        // campaign bug, not a no-op).
        let mut excludes = Vec::new();
        for s in doc.sections_named("exclude") {
            if s.pairs.is_empty() {
                return Err(DslError::at(s.line, "[exclude] section with no constraints"));
            }
            for p in &s.pairs {
                let Some(axis) = axes.iter().find(|a| a.key == p.key) else {
                    return Err(DslError::at(
                        p.line,
                        format!("exclude key {:?} is not a [matrix] axis", p.key),
                    ));
                };
                if !axis.values.contains(&p.value) {
                    return Err(DslError::at(
                        p.line,
                        format!(
                            "exclude value {:?} is not among the declared values of axis {:?}",
                            p.value, p.key
                        ),
                    ));
                }
            }
            excludes.push(s.pairs.clone());
        }

        // Budget.
        let mut budget = Budget::default();
        if let Some(s) = doc.unique_section("budget")? {
            for p in &s.pairs {
                match p.key.as_str() {
                    "digest" => {
                        budget.digest_exact = match p.value.as_str() {
                            "exact" => true,
                            "ignore" => false,
                            other => {
                                return Err(DslError::at(
                                    p.line,
                                    format!(
                                        "invalid value {other:?} for digest \
                                         (expected: exact, ignore)"
                                    ),
                                ))
                            }
                        }
                    }
                    "iters" => budget.iters = parse_num(p, "iteration budget")?,
                    "census" => budget.census = parse_num(p, "census budget")?,
                    "events" => budget.events = parse_num(p, "event budget")?,
                    other => {
                        return Err(DslError::at(
                            p.line,
                            format!(
                                "unknown [budget] key {other:?} \
                                 (known: digest, iters, census, events)"
                            ),
                        ))
                    }
                }
            }
        }

        Ok(CampaignSpec { name, jobs, base, axes, excludes, budget })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(key: &str, value: &str) -> RawPair {
        RawPair { key: key.into(), value: value.into(), line: 1 }
    }

    #[test]
    fn apply_maps_keys_onto_the_config() {
        let mut s = CellSettings::default();
        for (k, v) in [
            ("ranks", "3"),
            ("generations", "1"),
            ("particles", "40"),
            ("steps", "2"),
            ("seed", "99"),
            ("mode", "coupled:2+1"),
            ("layout", "opt"),
            ("dlb", "on"),
        ] {
            s.apply(&pair(k, v)).unwrap();
        }
        assert_eq!(s.ranks, 3);
        assert_eq!(s.config.num_particles, 40);
        assert_eq!(s.config.mode, ExecutionMode::Coupled { fluid: 2, particles: 1 });
        assert_eq!(s.config.layout, LayoutPlan::optimized());
        assert!(s.dlb);
    }

    // Nothing but the `layout` key picks a cell's layout: both names map
    // onto their plan, anything else is an error at the pair's line.
    #[test]
    fn explicit_layout_flag_is_authoritative() {
        let mut s = CellSettings::default();
        assert_eq!(s.config.layout, LayoutPlan::disabled());
        s.apply(&pair("layout", "opt")).unwrap();
        assert_eq!(s.config.layout, LayoutPlan::optimized());
        s.apply(&pair("layout", "default")).unwrap();
        assert_eq!(s.config.layout, LayoutPlan::disabled());
        let p = RawPair { key: "layout".into(), value: "fast".into(), line: 17 };
        let err = s.apply(&p).unwrap_err();
        assert_eq!(err.line, 17);
        assert!(err.message.contains("\"fast\"") && err.message.contains("default, opt"), "{err}");
    }

    #[test]
    fn hetero_and_policy_keys_round_trip() {
        let mut s = CellSettings::default();
        s.apply(&pair("hetero", "mn4_thunder")).unwrap();
        s.apply(&pair("dlb", "on")).unwrap();
        s.apply(&pair("seed", "77")).unwrap();
        let sc = s.to_scenario();
        assert!(sc.opts.dlb);
        let profile = sc.opts.hetero.expect("profile resolved");
        assert_eq!(profile.name, "mn4_thunder");
        assert_eq!(profile.seed, 77, "profile seeded with the scenario seed");

        // Unknown names fail at parse time, anchored to the line, and
        // name both the offender and the accepted set.
        let p = RawPair { key: "hetero".into(), value: "warp9".into(), line: 31 };
        let err = CellSettings::default().apply(&p).unwrap_err();
        assert_eq!(err.line, 31);
        assert!(err.message.contains("warp9") && err.message.contains("mn4_thunder"), "{err}");

        // Reactive LeWI is the only policy: the retired policy key is
        // an unknown key like any other (spelled in two pieces so the
        // source tree names it nowhere).
        let retired = concat!("dlb", "_policy");
        let p = RawPair { key: retired.into(), value: "reactive".into(), line: 8 };
        let err = CellSettings::default().apply(&p).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.message.contains("unknown scenario key"), "{err}");
        assert!(err.message.contains(retired), "{err}");
    }

    #[test]
    fn bad_values_carry_the_source_line() {
        let mut s = CellSettings::default();
        let p = RawPair { key: "mode".into(), value: "coupled:0+1".into(), line: 12 };
        assert_eq!(s.apply(&p).unwrap_err().line, 12);
        let p = RawPair { key: "bogus".into(), value: "1".into(), line: 9 };
        assert_eq!(s.apply(&p).unwrap_err().line, 9);
    }

    #[test]
    fn campaign_requires_name_and_validates_excludes() {
        let err = CampaignSpec::from_text("[campaign]\njobs = 2\n").unwrap_err();
        assert!(err.message.contains("missing 'name'"), "{err}");

        let err = CampaignSpec::from_text(
            "[campaign]\nname = x\n[matrix]\ndlb = off, on\n[exclude]\nlayout = opt\n",
        )
        .unwrap_err();
        assert!(err.message.contains("not a [matrix] axis"), "{err}");

        let err = CampaignSpec::from_text(
            "[campaign]\nname = x\n[matrix]\ndlb = off, on\n[exclude]\ndlb = maybe\n",
        )
        .unwrap_err();
        assert!(err.message.contains("not among the declared values"), "{err}");
    }
}
