//! ASCII timeline rendering — the Paraver substitute used to regenerate
//! the paper's Fig. 2 (one row per rank, time flowing right, one
//! character per phase).

use crate::event::Trace;

/// Render the trace as an ASCII timeline of `width` columns. Each rank
/// is one row; each column shows the phase tag active at that time (the
/// *last* phase covering the column start wins, matching how short MPI
/// gaps appear in Paraver at coarse zoom). Ranks are downsampled to at
/// most `max_rows` rows for large traces.
pub fn render_timeline(trace: &Trace, width: usize, max_rows: usize) -> String {
    let stride = trace.num_ranks.div_ceil(max_rows.max(1)).max(1);
    let ranks: Vec<usize> = (0..trace.num_ranks).step_by(stride).collect();
    render_timeline_ranks(trace, width, &ranks)
}

/// Like [`render_timeline`] but showing exactly the given ranks — used
/// when specific ranks must not be downsampled away (e.g. the single
/// rank carrying the particle phase).
pub fn render_timeline_ranks(trace: &Trace, width: usize, ranks: &[usize]) -> String {
    let total = trace.total_time();
    if total <= 0.0 || trace.num_ranks == 0 || ranks.is_empty() {
        return String::from("(empty trace)\n");
    }
    let width = width.max(10);
    let mut out = String::new();
    let chaos_legend = if trace.chaos.is_empty() {
        ""
    } else {
        " !=fault C=checkpoint"
    };
    let dlb_legend = if trace.dlb.is_empty() {
        ""
    } else {
        " L=lend G=borrow R=reclaim V=revoke X=crash"
    };
    out.push_str(&format!(
        "time -> total {:.4}s, {} ranks ({} shown), legend: A=assembly 1=solver1 2=solver2 S=sgs P=particles .=mpi{chaos_legend}{dlb_legend}\n",
        total,
        trace.num_ranks,
        ranks.len()
    ));
    for &rank in ranks {
        let mut row = vec![' '; width];
        for e in &trace.events {
            if e.rank != rank {
                continue;
            }
            let c0 = ((e.t_start / total) * width as f64) as usize;
            let c1 = (((e.t_end / total) * width as f64).ceil() as usize).min(width);
            for cell in row.iter_mut().take(c1).skip(c0.min(width)) {
                *cell = e.phase.tag();
            }
        }
        // DLB transitions overwrite the phase tag at their instant so
        // the timeline shows cores migrating between co-resident ranks
        // (the lend/borrow arrows of the paper's Fig. 8).
        for m in &trace.dlb {
            if m.rank != rank {
                continue;
            }
            let col = (((m.t / total) * width as f64) as usize).min(width - 1);
            row[col] = m.kind.tag();
        }
        // Chaos markers overwrite the phase tag at their instant so the
        // timeline shows *where* the fault plan struck.
        for c in &trace.chaos {
            if c.rank != rank {
                continue;
            }
            let col = (((c.t / total) * width as f64) as usize).min(width - 1);
            row[col] = c.kind.tag();
        }
        out.push_str(&format!("r{rank:>4} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, Trace};

    #[test]
    fn renders_rows_per_rank() {
        let mut t = Trace::new(3);
        for r in 0..3 {
            t.record(r, Phase::Assembly, 0.0, 1.0);
            t.record(r, Phase::Particles, 1.0, 1.0 + r as f64);
        }
        let s = render_timeline(&t, 40, 10);
        assert_eq!(s.lines().count(), 4); // header + 3 ranks
        assert!(s.contains('A'));
        assert!(s.contains('P'));
    }

    #[test]
    fn imbalance_visible_as_shorter_rows() {
        let mut t = Trace::new(2);
        t.record(0, Phase::Particles, 0.0, 10.0);
        t.record(1, Phase::Particles, 0.0, 1.0);
        let s = render_timeline(&t, 50, 10);
        let lines: Vec<&str> = s.lines().collect();
        let p0 = lines[1].matches('P').count();
        let p1 = lines[2].matches('P').count();
        assert!(p0 > 5 * p1, "rank 0 row should be ~10x longer: {p0} vs {p1}");
    }

    #[test]
    fn downsamples_ranks() {
        let mut t = Trace::new(100);
        for r in 0..100 {
            t.record(r, Phase::Sgs, 0.0, 1.0);
        }
        let s = render_timeline(&t, 30, 10);
        assert!(s.lines().count() <= 11);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(4);
        assert!(render_timeline(&t, 40, 10).contains("empty"));
    }

    #[test]
    fn chaos_markers_overlay_the_timeline() {
        use crate::event::ChaosKind;
        let mut t = Trace::new(2);
        t.record(0, Phase::Assembly, 0.0, 10.0);
        t.record(1, Phase::Assembly, 0.0, 10.0);
        t.record_chaos(0, 5.0, ChaosKind::FaultInjected);
        t.record_chaos(1, 2.0, ChaosKind::FaultInjected);
        t.record_chaos(1, 9.0, ChaosKind::CheckpointWritten);
        let s = render_timeline(&t, 40, 10);
        assert!(s.contains("!=fault"), "legend extended: {s}");
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].contains('!'), "rank 0 fault marker: {}", lines[1]);
        assert!(lines[2].contains('!') && lines[2].contains('C'), "{}", lines[2]);
    }

    #[test]
    fn legend_is_unchanged_without_chaos() {
        let mut t = Trace::new(1);
        t.record(0, Phase::Sgs, 0.0, 1.0);
        let s = render_timeline(&t, 40, 10);
        assert!(!s.contains("=fault"), "no chaos legend when quiet: {s}");
        assert!(!s.contains("=lend"), "no dlb legend when quiet: {s}");
    }

    #[test]
    fn dlb_marks_overlay_the_timeline() {
        use crate::event::DlbMarkKind;
        let mut t = Trace::new(2);
        t.record(0, Phase::Assembly, 0.0, 10.0);
        t.record(1, Phase::Assembly, 0.0, 10.0);
        t.record_dlb(0, 2.0, DlbMarkKind::Lend, 2);
        t.record_dlb(1, 5.0, DlbMarkKind::Borrow, 2);
        t.record_dlb(0, 8.0, DlbMarkKind::Reclaim, 2);
        let s = render_timeline(&t, 40, 10);
        assert!(s.contains("L=lend"), "legend extended: {s}");
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].contains('L') && lines[1].contains('R'), "{}", lines[1]);
        assert!(lines[2].contains('G'), "{}", lines[2]);
    }
}
