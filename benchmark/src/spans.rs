//! Benchmark-side span recorder for the traced pass. Spans are recorded
//! here, around calls into each crate's public functions — nothing in
//! the program under test is instrumented. They stay in memory and are
//! written as Chrome `trace_event` JSON when the pass ends.
//!
//! A span's layer is the part of its name before the first `.`
//! (`solver.construct` → `solver`); the `workload`, `op`, `job` and
//! `step` containers carry no layer of their own and count as `bench`.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    /// Identifier shared by every span of one op.
    pub op: u64,
    pub name: String,
    /// Lane in the exported trace (rank for phase spans, 0 otherwise).
    pub lane: usize,
    /// Seconds since the recorder's epoch.
    pub t0: f64,
    pub t1: f64,
}

pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Every span begun until the next call belongs to a new op.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let t = self.now();
        let id = self.push(name, 0, t, t, self.open.last().copied());
        self.open.push(id);
        id
    }

    /// Close `id` and return its duration. Spans still open inside it
    /// (an op that bailed out on an error) are closed with it.
    pub fn end(&mut self, id: usize) -> f64 {
        let t = self.now();
        while let Some(open) = self.open.pop() {
            self.spans[open].t1 = t;
            if open == id {
                break;
            }
        }
        t - self.spans[id].t0
    }

    /// Time one call as a span and return `(result, seconds)`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Record an interval measured elsewhere (a phase the op reported).
    pub fn push(
        &mut self,
        name: &str,
        lane: usize,
        t0: f64,
        t1: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            parent,
            op: self.op,
            name: name.to_string(),
            lane,
            t0,
            t1,
        });
        self.spans.len() - 1
    }

    /// Self time per layer: each span's duration minus the part of it
    /// that its children cover (children of concurrent ranks overlap,
    /// so coverage is the union of their intervals, not the sum).
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.t0.max(parent.t0), s.t1.min(parent.t1));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            *out.entry(layer_of(&s.name).to_string()).or_insert(0.0) += (s.t1 - s.t0) - covered;
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events, microseconds).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                layer_of(&s.name),
                s.lane,
                s.t0 * 1e6,
                (s.t1 - s.t0) * 1e6,
                s.op,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => "bench",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new();
        let op = s.push("op", 0, 0.0, 10.0, None);
        // Two ranks' phases overlap on [2, 4]; union covers [1, 6].
        s.push("solver.assembly", 0, 1.0, 4.0, Some(op));
        s.push("solver.assembly", 1, 2.0, 6.0, Some(op));
        let kid = s.push("mesh.generate", 0, 7.0, 9.0, Some(op));
        s.push("mesh.inner", 0, 7.5, 8.0, Some(kid));
        let by = s.self_time_by_layer();
        assert_eq!(by["bench"], 10.0 - 5.0 - 2.0);
        assert_eq!(by["solver"], 3.0 + 4.0);
        assert_eq!(by["mesh"], 1.5 + 0.5);
    }

    #[test]
    fn nested_spans_share_the_op_id_and_export_as_json() {
        let mut s = Spans::new();
        s.next_op();
        let outer = s.begin("op");
        let ((), d) = s.time("core.render", || ());
        assert!(d >= 0.0);
        s.end(outer);
        assert_eq!(s.spans[1].parent, Some(outer));
        assert_eq!(s.spans[0].op, s.spans[1].op);
        let doc = crate::api::parse_json(&s.to_chrome_json()).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|e| e.as_array())
                .map(<[_]>::len),
            Some(2)
        );
    }
}
