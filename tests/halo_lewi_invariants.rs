//! Invariant tests for LeWI lending: core-count conservation under
//! arbitrary lend/reclaim scripts. (Test target `lewi_invariants`; the
//! file keeps the path it had while it also held the halo-exchange
//! test, so the ids of the two tests below do not move.)

use cfpd_dlb::DlbNode;
use cfpd_runtime::ThreadPool;
use cfpd_testkit::rng::Rng;
use std::sync::Arc;

/// LeWI conservation under a randomized lend/reclaim script:
/// * no rank's pool ever drops below one active executor,
/// * a blocked rank runs exactly its floor worker (it lent every core),
/// * an unblocked rank runs at least its owned cores,
/// * the node never runs more cores than are owned in total — floor
///   workers own none (lending moves cores, it never mints them),
/// * reclaiming everything restores exact ownership, and the
///   lend/reclaim transition counts match.
#[test]
fn lewi_lending_conserves_cores() {
    lend_reclaim_script(&[3, 2, 2, 1], 0xD1B, 200);
}

/// The same bounds on an allotment where one rank owns more than the
/// other two together.
#[test]
fn lewi_lend_all_neediest_conserves_cores() {
    lend_reclaim_script(&[4, 2, 1], 0xA11, 120);
}

fn lend_reclaim_script(owned: &[usize], seed: u64, ops: usize) {
    let total_owned: usize = owned.iter().sum();
    let node = DlbNode::new();
    for (rank, &o) in owned.iter().enumerate() {
        node.register(rank, Arc::new(ThreadPool::new(total_owned)), o);
    }

    let mut rng = Rng::new(seed);
    let mut blocked = vec![false; owned.len()];
    for _op in 0..ops {
        let rank = rng.range_usize(0, owned.len());
        if rng.f64() < 0.5 {
            node.lend(rank);
            blocked[rank] = true;
        } else {
            node.reclaim(rank);
            blocked[rank] = false;
        }

        let mut total_active = 0usize;
        for (r, &o) in owned.iter().enumerate() {
            let active = node.active_of(r).expect("registered rank");
            assert!(active >= 1, "rank {r} starved to {active}");
            if blocked[r] {
                assert_eq!(active, 1, "blocked rank {r} must run exactly its floor worker");
            } else {
                assert!(active >= o, "unblocked rank {r}: {active} < owned {o}");
                total_active += active;
            }
        }
        assert!(
            total_active <= total_owned,
            "cores minted: {total_active} active > {total_owned} owned"
        );
    }

    // Full reclaim restores exact ownership everywhere.
    for rank in 0..owned.len() {
        node.reclaim(rank);
    }
    for (rank, &o) in owned.iter().enumerate() {
        assert_eq!(node.active_of(rank), Some(o), "rank {rank} not restored");
    }
    let stats = node.stats();
    assert_eq!(stats.lends, stats.reclaims, "unbalanced transitions: {stats:?}");
}
