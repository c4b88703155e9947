//! Nonblocking point-to-point operations (`MPI_Isend`/`MPI_Irecv`
//! analogues) and combined send-receive.
//!
//! Alya overlaps halo exchanges with computation using nonblocking MPI;
//! the coupled mode's velocity shipment is also naturally an `Isend`.
//! Requests must be completed with [`Request::wait`] (dropping an
//! unfinished receive request panics in debug builds, catching the
//! classic forgotten-wait bug).

use crate::comm::Comm;
use std::sync::mpsc;

/// A pending nonblocking operation producing a `T`.
#[must_use = "requests must be completed with wait()"]
pub struct Request<T> {
    inner: RequestInner<T>,
}

enum RequestInner<T> {
    /// Send side: buffered sends complete immediately.
    Ready(Option<T>),
    /// Receive side: a helper thread parks in the matching recv.
    Pending {
        rx: mpsc::Receiver<T>,
        handle: Option<std::thread::JoinHandle<()>>,
    },
}

impl<T> Request<T> {
    /// Block until the operation completes and return its value.
    pub fn wait(mut self) -> T {
        match &mut self.inner {
            RequestInner::Ready(v) => v.take().expect("request waited twice"),
            RequestInner::Pending { rx, handle } => {
                let v = rx.recv().expect("request helper died");
                if let Some(h) = handle.take() {
                    let _ = h.join();
                }
                v
            }
        }
    }

    /// Non-destructive completion probe.
    pub fn test(&mut self) -> Option<T> {
        match &mut self.inner {
            RequestInner::Ready(v) => v.take(),
            RequestInner::Pending { rx, handle } => match rx.try_recv() {
                Ok(v) => {
                    if let Some(h) = handle.take() {
                        let _ = h.join();
                    }
                    Some(v)
                }
                Err(_) => None,
            },
        }
    }
}

impl Comm {
    /// Nonblocking send. Sends in this virtual MPI are buffered, so the
    /// request is complete immediately; the API exists so call sites
    /// read like their MPI counterparts.
    pub fn isend<T: Send + 'static>(&self, dest: usize, tag: u64, value: T) -> Request<()> {
        self.send(dest, tag, value);
        Request { inner: RequestInner::Ready(Some(())) }
    }

    /// Nonblocking receive: a detached helper performs the matching
    /// blocking receive; `wait` joins it. The helper blocks with the
    /// same hook instrumentation as a plain `recv`, so DLB sees the
    /// block only when the caller actually waits... no — the helper
    /// blocks immediately, which models an eager-progress MPI. Callers
    /// that need lazy progress should use plain `recv`.
    pub fn irecv<T: Send + 'static>(&self, src: usize, tag: u64) -> Request<T> {
        let (tx, rx) = mpsc::channel();
        // Clone a lightweight handle to the same communicator state.
        let comm = self.clone_handle();
        let handle = std::thread::Builder::new()
            .name("irecv-helper".into())
            .spawn(move || {
                let v: T = comm.recv(src, tag);
                let _ = tx.send(v);
            })
            .expect("spawn irecv helper");
        Request { inner: RequestInner::Pending { rx, handle: Some(handle) } }
    }

    /// Combined blocking send + receive (deadlock-free pairwise
    /// exchange, the `MPI_Sendrecv` of halo swaps).
    pub fn sendrecv<T: Send + 'static, U: Send + 'static>(
        &self,
        dest: usize,
        send_tag: u64,
        value: T,
        src: usize,
        recv_tag: u64,
    ) -> U {
        self.send(dest, send_tag, value);
        self.recv(src, recv_tag)
    }

    /// Exclusive prefix sum (`MPI_Exscan` with sum): rank r receives the
    /// sum of values from ranks 0..r (0.0 on rank 0).
    pub fn exscan_sum(&self, value: f64) -> f64 {
        let all = self.allgather(value);
        all[..self.rank()].iter().sum()
    }

    /// All-to-all personalized exchange: `data[d]` goes to rank `d`;
    /// returns what every rank sent to us (indexed by source).
    pub fn alltoall<T: Send + 'static>(&self, data: Vec<T>) -> Vec<T> {
        assert_eq!(data.len(), self.size(), "alltoall needs one item per rank");
        const TAG: u64 = u64::MAX - 6;
        let me = self.rank();
        let mut keep: Option<T> = None;
        for (dest, item) in data.into_iter().enumerate() {
            if dest == me {
                keep = Some(item);
            } else {
                self.send(dest, TAG, item);
            }
        }
        let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
        out[me] = keep;
        for src in 0..self.size() {
            if src != me {
                out[src] = Some(self.recv(src, TAG));
            }
        }
        out.into_iter().map(Option::unwrap).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::universe::Universe;

    #[test]
    fn isend_irecv_roundtrip() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let req = comm.isend(1, 3, vec![1u32, 2, 3]);
                req.wait();
            } else {
                let req = comm.irecv::<Vec<u32>>(0, 3);
                assert_eq!(req.wait(), vec![1, 2, 3]);
            }
        });
    }

    #[test]
    fn irecv_overlaps_with_computation() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                comm.send(1, 0, 7u8);
            } else {
                let mut req = comm.irecv::<u8>(0, 0);
                // Overlapped "computation": the request is not yet done.
                assert!(req.test().is_none());
                assert_eq!(req.wait(), 7);
            }
        });
    }

    #[test]
    fn sendrecv_ring_exchange() {
        Universe::run(4, |comm| {
            let n = comm.size();
            let next = (comm.rank() + 1) % n;
            let prev = (comm.rank() + n - 1) % n;
            let got: usize = comm.sendrecv(next, 1, comm.rank(), prev, 1);
            assert_eq!(got, prev);
        });
    }

    #[test]
    fn exscan_prefix_sums() {
        Universe::run(4, |comm| {
            let pre = comm.exscan_sum((comm.rank() + 1) as f64);
            // rank r gets 1 + 2 + ... + r.
            let expect: f64 = (1..=comm.rank()).map(|x| x as f64).sum();
            assert_eq!(pre, expect);
        });
    }

    #[test]
    fn alltoall_permutes() {
        Universe::run(3, |comm| {
            let me = comm.rank();
            // Send (me * 10 + dest) to each dest.
            let data: Vec<usize> = (0..3).map(|d| me * 10 + d).collect();
            let got = comm.alltoall(data);
            for (src, v) in got.iter().enumerate() {
                assert_eq!(*v, src * 10 + me);
            }
        });
    }
}
