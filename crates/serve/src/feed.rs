//! The supervisor event feed: a bounded, monotonic sequence of
//! structured lifecycle events (job admitted / started / cell done /
//! retried / shed / …) that `GET /events?since=seq` long-polls.
//!
//! The feed is a leaf lock: posting never takes any other daemon lock,
//! so it is safe to post while holding the store mutex. Readers wait on
//! a condvar with a bounded timeout well under the HTTP client's read
//! timeout, so a long-poll always answers.

use crate::wal::WalRecord;
use cfpd_telemetry::JsonWriter;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One feed entry. `seq` is monotonic from 1 across the daemon's
/// lifetime; a client resumes with `?since=<last seen seq>`.
#[derive(Debug, Clone)]
pub struct FeedEvent {
    pub seq: u64,
    /// Event class (static: "admitted", "started", "cell_done",
    /// "retried", "shed", "done", "failed", "cancelled", "preempted",
    /// "phase_drift").
    pub kind: &'static str,
    /// Subject job id (0 for daemon-wide events such as drift warnings).
    pub job: u64,
    pub detail: String,
}

struct Inner {
    events: VecDeque<FeedEvent>,
    next_seq: u64,
}

/// Bounded in-memory feed (old events are dropped once `cap` is
/// exceeded; `first_retained` in the response tells a slow client it
/// missed some).
pub struct EventFeed {
    inner: Mutex<Inner>,
    cv: Condvar,
    cap: usize,
}

impl EventFeed {
    pub fn new(cap: usize) -> EventFeed {
        EventFeed {
            inner: Mutex::new(Inner { events: VecDeque::new(), next_seq: 1 }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Append an event and wake every long-poller.
    pub fn post(&self, kind: &'static str, job: u64, detail: impl Into<String>) {
        let mut g = self.inner.lock().unwrap();
        let seq = g.next_seq;
        g.next_seq += 1;
        g.events.push_back(FeedEvent { seq, kind, job, detail: detail.into() });
        while g.events.len() > self.cap {
            g.events.pop_front();
        }
        drop(g);
        self.cv.notify_all();
    }

    /// What the live daemon tells the world about a record it committed:
    /// the lifecycle event and the `/metrics` counter that are a function
    /// of the record (`cells` is the size of its job's matrix). `ckpt`
    /// and `preempt` announce nothing here — a boundary is a histogram
    /// sample, and a park is a preemption only when it was not a drain.
    pub fn announce(&self, rec: &WalRecord, cells: usize) {
        let (kind, detail) = match rec {
            WalRecord::Submit { name, .. } => {
                cfpd_telemetry::count!("serve.jobs_submitted");
                ("admitted", format!("{name} ({cells} cells)"))
            }
            WalRecord::Start { cell, attempt, .. } => {
                ("started", format!("cell {cell} attempt {attempt}"))
            }
            WalRecord::Ckpt { .. } | WalRecord::Preempt { .. } => return,
            WalRecord::CellDone { cell, .. } => {
                ("cell_done", format!("cell {} of {cells}", cell + 1))
            }
            WalRecord::CellFail { reason, .. } => ("cell_failed", reason.clone()),
            WalRecord::Retry { cell, attempt, backoff_ms, reason, .. } => {
                cfpd_telemetry::count!("serve.retries");
                ("retried", format!("cell {cell} attempt {attempt} after {backoff_ms}ms: {reason}"))
            }
            WalRecord::Done { .. } => {
                cfpd_telemetry::count!("serve.jobs_done");
                ("done", "all cells complete".to_string())
            }
            WalRecord::Fail { reason, .. } => {
                cfpd_telemetry::count!("serve.jobs_failed");
                ("failed", reason.clone())
            }
            WalRecord::Cancel { .. } => {
                cfpd_telemetry::count!("serve.jobs_cancelled");
                ("cancelled", "cancel honoured".to_string())
            }
        };
        self.post(kind, rec.job_id(), detail);
    }

    /// Events with `seq > since`, waiting up to `wait` for the first
    /// one. Returns `(events, last_seq_assigned, first_retained_seq)`.
    pub fn since(&self, since: u64, wait: Duration) -> (Vec<FeedEvent>, u64, u64) {
        let deadline = Instant::now() + wait;
        let mut g = self.inner.lock().unwrap();
        loop {
            let fresh: Vec<FeedEvent> =
                g.events.iter().filter(|e| e.seq > since).cloned().collect();
            let last = g.next_seq - 1;
            let first_retained = g.events.front().map(|e| e.seq).unwrap_or(g.next_seq);
            if !fresh.is_empty() {
                return (fresh, last, first_retained);
            }
            let now = Instant::now();
            if now >= deadline {
                return (fresh, last, first_retained);
            }
            let (guard, _) = self.cv.wait_timeout(g, deadline - now).unwrap();
            g = guard;
        }
    }

    /// Render a `since` response as the `/events` JSON document.
    pub fn render_json(events: &[FeedEvent], last: u64, first_retained: u64) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("events").begin_array();
        for e in events {
            w.begin_object();
            w.key("seq").u64(e.seq);
            w.key("kind").string(e.kind);
            w.key("job").u64(e.job);
            w.key("detail").string(&e.detail);
            w.end_object();
        }
        w.end_array();
        w.key("last").u64(last);
        w.key("first_retained").u64(first_retained);
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn posts_are_monotonic_and_bounded() {
        let feed = EventFeed::new(3);
        for i in 0..5u64 {
            feed.post("admitted", i, format!("job {i}"));
        }
        let (evs, last, first) = feed.since(0, Duration::from_millis(0));
        assert_eq!(last, 5);
        assert_eq!(first, 3, "two oldest dropped by the cap");
        assert_eq!(evs.len(), 3);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn since_filters_and_long_poll_wakes() {
        let feed = Arc::new(EventFeed::new(16));
        feed.post("admitted", 1, "a");
        let (evs, last, _) = feed.since(1, Duration::from_millis(0));
        assert!(evs.is_empty());
        assert_eq!(last, 1);

        let waiter = Arc::clone(&feed);
        let t = std::thread::spawn(move || waiter.since(1, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        feed.post("cell_done", 1, "cell 0");
        let (evs, last, _) = t.join().unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, "cell_done");
        assert_eq!(last, 2);
    }

    #[test]
    fn renders_structured_json() {
        let feed = EventFeed::new(4);
        feed.post("shed", 0, "queue full (\"busy\")");
        let (evs, last, first) = feed.since(0, Duration::from_millis(0));
        let json = EventFeed::render_json(&evs, last, first);
        assert!(json.contains(r#""kind":"shed""#));
        assert!(json.contains(r#""last":1"#));
        // JSON string escaping survives hostile details.
        assert!(json.contains("\\\"busy\\\""));
    }
}
