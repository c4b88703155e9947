//! Job-level LeWI: slot lending between *jobs on a node*, the same
//! lend/reclaim vocabulary [`crate::lewi::DlbNode`] applies to cores
//! between ranks, lifted one level up the hierarchy for `cfpd serve`.
//!
//! A node runs `slots` concurrent jobs. A running job that gets
//! preempted *lends* its slot (it parks on a checkpoint, exactly like a
//! rank parking in a blocking MPI call); the admitted short job takes
//! the slot via an ordinary acquire; when the preempted job is
//! rescheduled it *reclaims*. The arbiter is pure bookkeeping — the
//! caller (the serve scheduler) holds its own lock and drives the
//! transitions — but it enforces the conservation invariant
//! (`held + free == total`, no job holds two slots) and counts every
//! transition in the `dlb.job_*` telemetry counters.

use std::collections::BTreeSet;

/// The slot arbiter. Not internally synchronized: wrap it in the
/// scheduler's state lock.
#[derive(Debug)]
pub struct JobArbiter {
    total: usize,
    held: BTreeSet<u64>,
}

impl JobArbiter {
    pub fn new(slots: usize) -> JobArbiter {
        assert!(slots >= 1, "a node needs at least one job slot");
        JobArbiter { total: slots, held: BTreeSet::new() }
    }

    pub fn free(&self) -> usize {
        self.total - self.held.len()
    }

    /// Take a free slot. `false` when the node is full (the caller
    /// queues the job) or the job already holds one.
    pub fn try_acquire(&mut self, job: u64) -> bool {
        if self.free() == 0 || self.held.contains(&job) {
            return false;
        }
        self.held.insert(job);
        cfpd_telemetry::count!("dlb.job_acquires");
        true
    }

    /// A preempted job returns its slot so another job can run.
    pub fn lend(&mut self, job: u64) {
        assert!(self.held.remove(&job), "job {job} lent a slot it does not hold");
        cfpd_telemetry::count!("dlb.job_lends");
    }

    /// A previously preempted job re-acquires a slot to resume from its
    /// checkpoint. Counted apart from [`Self::try_acquire`] so
    /// preemption round trips are visible in telemetry.
    pub fn try_reclaim(&mut self, job: u64) -> bool {
        if self.free() == 0 || self.held.contains(&job) {
            return false;
        }
        self.held.insert(job);
        cfpd_telemetry::count!("dlb.job_reclaims");
        true
    }

    /// A terminal job gives its slot back for good.
    pub fn release(&mut self, job: u64) {
        assert!(self.held.remove(&job), "job {job} released a slot it does not hold");
    }

    /// `(held, total)` — the conservation invariant is
    /// `held + free() == total` with every holder distinct, which the
    /// `BTreeSet` representation makes true by construction; the tests
    /// assert it after their transition sequences.
    #[cfg(test)]
    fn conservation(&self) -> (usize, usize) {
        (self.held.len(), self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_lend_reclaim_release_cycle() {
        let mut a = JobArbiter::new(1);
        assert!(a.try_acquire(1));
        assert!(!a.try_acquire(2), "full node must refuse");
        // Preempt job 1, admit job 2.
        a.lend(1);
        assert!(a.try_acquire(2));
        a.release(2);
        assert_eq!((a.free(), a.conservation()), (1, (0, 1)));
        // Job 1 resumes.
        assert!(a.try_reclaim(1));
        assert_eq!((a.free(), a.conservation()), (0, (1, 1)));
        assert!(!a.try_acquire(3), "a resumed job holds the only slot");
        a.release(1);
        assert_eq!((a.free(), a.conservation()), (1, (0, 1)));
    }

    #[test]
    fn double_acquire_is_refused_and_conservation_holds() {
        let mut a = JobArbiter::new(3);
        assert!(a.try_acquire(7));
        assert!(!a.try_acquire(7), "a job cannot hold two slots");
        assert!(!a.try_reclaim(7));
        assert!(a.try_acquire(8));
        let (held, total) = a.conservation();
        assert_eq!(held + a.free(), total);
        assert_eq!((held, a.free()), (2, 1));
        a.lend(7);
        assert!(a.try_acquire(9));
        assert!(a.try_reclaim(7));
        assert!(!a.try_reclaim(10), "a full node refuses a reclaim");
        assert_eq!((a.free(), a.conservation()), (0, (3, 3)));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn releasing_a_slot_never_held_panics() {
        JobArbiter::new(2).release(9);
    }
}
