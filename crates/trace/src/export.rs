//! Trace exporters: Paraver (`.prv` / `.pcf` / `.row`) and Chrome
//! `trace_event` JSON.
//!
//! Both exporters are deterministic: records are sorted internally, the
//! `.prv` header carries a fixed date, and timestamps are derived from
//! the trace's `f64` seconds by explicit rounding (nanoseconds for
//! Paraver, microseconds for Chrome). This is what lets the golden
//! snapshot tests byte-compare exporter output for a synthetic trace.
//!
//! Format references: the Paraver trace body uses the three classic
//! record kinds — `1:` state, `2:` punctual event, `3:` communication —
//! with the object hierarchy `cpu:appl:task:thread`; Chrome JSON uses
//! complete (`"X"`), flow (`"s"`/`"f"`), instant (`"i"`) and metadata
//! (`"M"`) events, loadable in `chrome://tracing` and Perfetto.

use crate::event::{worker_view, DlbMarkKind, Phase, Trace, WorkerEvent, WorkerState};
use cfpd_telemetry::JsonWriter;

/// Paraver state value per worker state (matching the stock
/// `STATES` palette: 1 Running, 3 Waiting a message, 7 Schedule and
/// Fork/Join).
fn prv_state(state: WorkerState) -> u64 {
    match state {
        WorkerState::MpiWait => 3,
        WorkerState::RuntimeOverhead => 7,
        _ => 1,
    }
}

/// Event-type ids in our `.pcf` (picked in the Extrae user-event range).
const EV_STATE: u64 = 90000001;
const EV_DLB: u64 = 90000002;
const EV_DLB_CORES: u64 = 90000003;
const EV_CHAOS: u64 = 90000004;

fn ns(t: f64) -> u64 {
    (t * 1e9).round().max(0.0) as u64
}

fn us(t: f64) -> f64 {
    (t * 1e9).round() / 1e3
}

/// `1 + index` value for a worker state in the `.pcf` VALUES table.
fn state_value(state: WorkerState) -> u64 {
    WorkerState::ALL.iter().position(|s| *s == state).unwrap() as u64 + 1
}

/// DLB transitions in `.pcf` value order (`1 + index`).
const DLB_KINDS: [DlbMarkKind; 5] = [
    DlbMarkKind::Lend,
    DlbMarkKind::Borrow,
    DlbMarkKind::Reclaim,
    DlbMarkKind::Revoke,
    DlbMarkKind::Crashed,
];

fn dlb_value(kind: DlbMarkKind) -> u64 {
    DLB_KINDS.iter().position(|k| *k == kind).unwrap() as u64 + 1
}

/// Threads per rank implied by the trace (at least 1).
fn threads_per_rank(trace: &Trace, workers: &[WorkerEvent]) -> Vec<usize> {
    let mut threads = vec![1usize; trace.num_ranks];
    for w in workers {
        threads[w.rank] = threads[w.rank].max(w.worker + 1);
    }
    threads
}

/// First CPU id (1-based) of each rank, given threads-per-rank.
fn cpu_base(threads: &[usize]) -> Vec<u64> {
    let mut base = Vec::with_capacity(threads.len());
    let mut next = 1u64;
    for &t in threads {
        base.push(next);
        next += t as u64;
    }
    base
}

/// Render the `.prv` trace body (header + state/event/comm records).
pub fn export_prv(trace: &Trace) -> String {
    let workers = worker_view(trace);
    let threads = threads_per_rank(trace, &workers);
    let bases = cpu_base(&threads);
    let total_cpus: usize = threads.iter().sum();
    let ftime = ns(trace.total_time());

    // Header: fixed date so output is reproducible; one node holding
    // all cpus; one application whose task list is `threads:node`.
    let task_list: Vec<String> = threads.iter().map(|t| format!("{t}:1")).collect();
    let mut out = format!(
        "#Paraver (01/01/2026 at 00:00):{}_ns:1({}):1:{}({})\n",
        ftime,
        total_cpus,
        trace.num_ranks,
        task_list.join(",")
    );

    // All records carry a primary sort timestamp so the body is
    // time-ordered like an Extrae merge.
    let mut records: Vec<(u64, u8, String)> = Vec::new();

    for w in &workers {
        let (t0, t1) = (ns(w.t_start), ns(w.t_end));
        let cpu = bases[w.rank] + w.worker as u64;
        let (task, thread) = (w.rank as u64 + 1, w.worker as u64 + 1);
        records.push((
            t0,
            1,
            format!("1:{cpu}:1:{task}:{thread}:{t0}:{t1}:{}", prv_state(w.state)),
        ));
        // Punctual event pair carrying the detailed state: value at
        // entry, 0 at exit (the standard Extrae begin/end encoding).
        records.push((
            t0,
            2,
            format!("2:{cpu}:1:{task}:{thread}:{t0}:{EV_STATE}:{}", state_value(w.state)),
        ));
        records.push((t1, 2, format!("2:{cpu}:1:{task}:{thread}:{t1}:{EV_STATE}:0")));
    }

    for m in &trace.dlb {
        let t = ns(m.t);
        let cpu = bases[m.rank];
        let task = m.rank as u64 + 1;
        records.push((
            t,
            2,
            format!(
                "2:{cpu}:1:{task}:1:{t}:{EV_DLB}:{}:{EV_DLB_CORES}:{}",
                dlb_value(m.kind),
                m.cores
            ),
        ));
    }

    for c in &trace.chaos {
        let t = ns(c.t);
        let cpu = bases[c.rank];
        let task = c.rank as u64 + 1;
        let value = match c.kind {
            crate::event::ChaosKind::FaultInjected => 1,
            crate::event::ChaosKind::CheckpointWritten => 2,
        };
        records.push((t, 2, format!("2:{cpu}:1:{task}:1:{t}:{EV_CHAOS}:{value}")));
    }

    for msg in &trace.messages {
        let (ts, tr) = (ns(msg.t_send), ns(msg.t_recv));
        let (cs, cr) = (bases[msg.src], bases[msg.dst]);
        let (tks, tkr) = (msg.src as u64 + 1, msg.dst as u64 + 1);
        // Logical and physical send/recv coincide in our simulator.
        records.push((
            ts,
            3,
            format!(
                "3:{cs}:1:{tks}:1:{ts}:{ts}:{cr}:1:{tkr}:1:{tr}:{tr}:{}:{}",
                msg.bytes, msg.tag
            ),
        ));
    }

    records.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
    for (_, _, line) in records {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Render the `.pcf` configuration (state palette + event-type tables).
pub fn export_pcf() -> String {
    let mut out = String::from(
        "DEFAULT_OPTIONS\n\nLEVEL               THREAD\nUNITS               NANOSEC\n\n\
         STATES\n0    Idle\n1    Running\n2    Not created\n3    Waiting a message\n\
         4    Blocking Send\n5    Synchronization\n6    Test/Probe\n\
         7    Schedule and Fork/Join\n8    Wait/WaitAll\n9    Blocked\n\n\
         STATES_COLOR\n0    {117,195,255}\n1    {0,0,255}\n3    {255,0,0}\n\
         7    {255,255,0}\n\n",
    );

    out.push_str(&format!("EVENT_TYPE\n0    {EV_STATE}    CFPD worker state\nVALUES\n"));
    out.push_str("0      End\n");
    for s in WorkerState::ALL {
        out.push_str(&format!("{}      {}\n", state_value(s), s.name()));
    }
    out.push('\n');

    out.push_str(&format!("EVENT_TYPE\n0    {EV_DLB}    DLB transition\nVALUES\n"));
    out.push_str("0      End\n");
    for k in DLB_KINDS {
        out.push_str(&format!("{}      {}\n", dlb_value(k), k.name()));
    }
    out.push('\n');

    out.push_str(&format!("EVENT_TYPE\n0    {EV_DLB_CORES}    DLB cores moved\n\n"));

    out.push_str(&format!("EVENT_TYPE\n0    {EV_CHAOS}    Chaos incident\nVALUES\n"));
    out.push_str("0      End\n1      fault\n2      checkpoint\n");
    out
}

/// Render the `.row` object-name listing.
pub fn export_row(trace: &Trace) -> String {
    let workers = worker_view(trace);
    let threads = threads_per_rank(trace, &workers);
    let total: usize = threads.iter().sum();

    let mut out = format!("LEVEL CPU SIZE {total}\n");
    for (rank, &t) in threads.iter().enumerate() {
        for w in 0..t {
            out.push_str(&format!("CPU {rank}.{w}\n"));
        }
    }
    out.push_str(&format!("\nLEVEL TASK SIZE {}\n", trace.num_ranks));
    for rank in 0..trace.num_ranks {
        out.push_str(&format!("RANK {rank}\n"));
    }
    out.push_str(&format!("\nLEVEL THREAD SIZE {total}\n"));
    for (rank, &t) in threads.iter().enumerate() {
        for w in 0..t {
            out.push_str(&format!("RANK {rank} WORKER {w}\n"));
        }
    }
    out
}

/// Render Chrome `trace_event` JSON (one object with a `traceEvents`
/// array; `pid` = rank, `tid` = worker, timestamps in microseconds).
pub fn export_chrome(trace: &Trace) -> String {
    let workers = worker_view(trace);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit").string("ms");
    w.key("traceEvents").begin_array();

    for rank in 0..trace.num_ranks {
        w.begin_object();
        w.key("ph").string("M");
        w.key("name").string("process_name");
        w.key("pid").u64(rank as u64);
        w.key("args").begin_object();
        w.key("name").string(&format!("rank {rank}"));
        w.end_object();
        w.end_object();
    }

    for e in &workers {
        w.begin_object();
        w.key("ph").string("X");
        w.key("name").string(e.state.name());
        w.key("cat").string("state");
        w.key("pid").u64(e.rank as u64);
        w.key("tid").u64(e.worker as u64);
        w.key("ts").f64(us(e.t_start));
        w.key("dur").f64(us(e.t_end) - us(e.t_start));
        w.end_object();
    }

    let mut messages = trace.messages.clone();
    messages.sort_by(|a, b| {
        (a.src, a.dst, a.tag)
            .cmp(&(b.src, b.dst, b.tag))
            .then(a.t_send.total_cmp(&b.t_send))
    });
    for (id, m) in messages.iter().enumerate() {
        for (ph, pid, ts) in [("s", m.src, m.t_send), ("f", m.dst, m.t_recv)] {
            w.begin_object();
            w.key("ph").string(ph);
            if ph == "f" {
                w.key("bp").string("e");
            }
            w.key("name").string("msg");
            w.key("cat").string("msg");
            w.key("id").u64(id as u64);
            w.key("pid").u64(pid as u64);
            w.key("tid").u64(0);
            w.key("ts").f64(us(ts));
            w.key("args").begin_object();
            w.key("bytes").u64(m.bytes as u64);
            w.key("tag").string(&m.tag.to_string());
            w.end_object();
            w.end_object();
        }
    }

    for m in &trace.dlb {
        w.begin_object();
        w.key("ph").string("i");
        w.key("s").string("t");
        w.key("name").string(m.kind.name());
        w.key("cat").string("dlb");
        w.key("pid").u64(m.rank as u64);
        w.key("tid").u64(0);
        w.key("ts").f64(us(m.t));
        w.key("args").begin_object();
        w.key("cores").u64(m.cores as u64);
        w.end_object();
        w.end_object();
    }

    for c in &trace.chaos {
        w.begin_object();
        w.key("ph").string("i");
        w.key("s").string("t");
        w.key("name").string(c.kind.name());
        w.key("cat").string("chaos");
        w.key("pid").u64(c.rank as u64);
        w.key("tid").u64(0);
        w.key("ts").f64(us(c.t));
        w.end_object();
    }

    w.end_array();
    w.end_object();
    w.finish()
}

/// Render the deterministic run summary consumed by `cfpd trace diff`.
///
/// The `phases` and `messages` aggregates are protocol-deterministic
/// for a fixed seed (interval counts, message counts and byte totals);
/// the `*_time` fields are wall-clock measurements and therefore only
/// informational — [`crate::diff`] excludes them from the zero-delta
/// verdict. Message tags are serialized as strings because collective
/// tags sit near `u64::MAX`, beyond `f64`'s exact-integer range.
pub fn export_summary(trace: &Trace) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("ranks").u64(trace.num_ranks as u64);
    w.key("wall_time").f64(trace.events.iter().map(|e| e.t_end).fold(0.0, f64::max));

    w.key("phases").begin_array();
    for rank in 0..trace.num_ranks {
        for phase in Phase::ALL {
            let (mut count, mut time) = (0u64, 0.0f64);
            for e in &trace.events {
                if e.rank == rank && e.phase == phase {
                    count += 1;
                    time += e.duration();
                }
            }
            if count > 0 {
                w.begin_object();
                w.key("rank").u64(rank as u64);
                w.key("phase").string(phase.name());
                w.key("count").u64(count);
                w.key("time").f64(time);
                w.end_object();
            }
        }
    }
    w.end_array();

    // Aggregate messages per (src, dst, tag).
    let mut keys: Vec<(usize, usize, u64)> =
        trace.messages.iter().map(|m| (m.src, m.dst, m.tag)).collect();
    keys.sort_unstable();
    keys.dedup();
    w.key("messages").begin_array();
    for (src, dst, tag) in keys {
        let (mut count, mut bytes) = (0u64, 0u64);
        for m in &trace.messages {
            if (m.src, m.dst, m.tag) == (src, dst, tag) {
                count += 1;
                bytes += m.bytes as u64;
            }
        }
        w.begin_object();
        w.key("src").u64(src as u64);
        w.key("dst").u64(dst as u64);
        w.key("tag").string(&tag.to_string());
        w.key("count").u64(count);
        w.key("bytes").u64(bytes);
        w.end_object();
    }
    w.end_array();

    w.key("dlb_marks").u64(trace.dlb.len() as u64);
    w.key("chaos_marks").u64(trace.chaos.len() as u64);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChaosKind, DlbMarkKind};

    fn sample() -> Trace {
        let mut t = Trace::new(2);
        t.record(0, Phase::Assembly, 0.0, 1.0);
        t.record(1, Phase::Assembly, 0.0, 0.5);
        t.record_worker(0, 0, WorkerState::Assembly, 0.0, 1.0);
        t.record_worker(1, 0, WorkerState::Assembly, 0.0, 0.5);
        t.record_worker(1, 0, WorkerState::MpiWait, 0.5, 1.0);
        t.record_worker(0, 1, WorkerState::Useful, 0.25, 0.75);
        t.record_msg(0, 1, 42, 8, 0.9, 0.95);
        t.record_dlb(1, 0.6, DlbMarkKind::Lend, 2);
        t.record_chaos(0, 0.3, ChaosKind::FaultInjected);
        t
    }

    #[test]
    fn prv_header_and_record_kinds() {
        let prv = export_prv(&sample());
        let mut lines = prv.lines();
        let header = lines.next().unwrap();
        // ftime = 1s = 1e9 ns; 3 cpus (2 on rank 0, 1 on rank 1);
        // 2 tasks with 2 and 1 threads.
        assert_eq!(header, "#Paraver (01/01/2026 at 00:00):1000000000_ns:1(3):1:2(2:1,1:1)");
        let body: Vec<&str> = lines.collect();
        assert!(body.iter().any(|l| l.starts_with("1:") && l.ends_with(":3")),
            "missing MpiWait state record");
        assert!(body.iter().any(|l| l.starts_with("3:")), "missing comm record");
        assert!(body.iter().any(|l| l.contains(&format!(":{EV_DLB}:"))));
        assert!(body.iter().any(|l| l.contains(&format!(":{EV_CHAOS}:"))));
        // Time-sorted.
        let times: Vec<u64> = body
            .iter()
            .map(|l| l.split(':').nth(5).unwrap().parse().unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "records not time-sorted");
    }

    #[test]
    fn pcf_declares_all_state_values() {
        let pcf = export_pcf();
        for s in WorkerState::ALL {
            assert!(pcf.contains(s.name()), "missing state {:?}", s);
        }
        assert!(pcf.contains("Waiting a message"));
        assert!(pcf.contains(&EV_DLB.to_string()));
    }

    #[test]
    fn row_lists_every_thread() {
        let row = export_row(&sample());
        assert!(row.contains("LEVEL THREAD SIZE 3"));
        assert!(row.contains("RANK 0 WORKER 1"));
        assert!(row.contains("RANK 1 WORKER 0"));
    }

    #[test]
    fn chrome_json_parses_and_has_all_event_kinds() {
        let doc = export_chrome(&sample());
        let v = cfpd_testkit::parse_json(&doc).expect("chrome JSON must parse");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let ph = |p: &str| {
            events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some(p)).count()
        };
        assert_eq!(ph("M"), 2);
        assert_eq!(ph("X"), 4);
        assert_eq!(ph("s"), 1);
        assert_eq!(ph("f"), 1);
        assert_eq!(ph("i"), 2);
    }

    #[test]
    fn summary_aggregates_are_deterministic() {
        let doc = export_summary(&sample());
        let v = cfpd_testkit::parse_json(&doc).expect("summary must parse");
        assert_eq!(v.get("ranks").unwrap().as_u64(), Some(2));
        let msgs = v.get("messages").unwrap().as_array().unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].get("tag").unwrap().as_str(), Some("42"));
        assert_eq!(msgs[0].get("bytes").unwrap().as_u64(), Some(8));
        assert_eq!(export_summary(&sample()), doc, "summary not deterministic");
    }
}
