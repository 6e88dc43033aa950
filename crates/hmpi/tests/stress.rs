//! Stress tests: hammer the group lifecycle and recon machinery to shake
//! out protocol races the scenario tests might miss.

use hetsim::Cluster;
use hmpi::HmpiRuntime;
use mpisim::ReduceOp;
use perfmodel::ModelBuilder;
use std::sync::Arc;

fn paper_lan() -> Arc<Cluster> {
    Arc::new(Cluster::paper_lan_em3d())
}

#[test]
fn fifty_create_free_cycles() {
    let rt = HmpiRuntime::new(paper_lan());
    let report = rt.run(|h| {
        let model = ModelBuilder::new("cycle")
            .processors(5)
            .volumes(vec![10.0, 20.0, 30.0, 40.0, 50.0])
            .build()
            .unwrap();
        let mut memberships = 0usize;
        let mut last_id = 0;
        for _ in 0..50 {
            let g = h.group_create(&model).unwrap();
            assert!(g.id() > last_id, "group ids are strictly increasing");
            last_id = g.id();
            if let Some(comm) = g.comm() {
                memberships += 1;
                let s = comm.allreduce_eq_i64(&[1], ReduceOp::Sum).unwrap()[0];
                assert_eq!(s, 5);
            }
            if g.is_member() {
                h.group_free(g).unwrap();
            }
        }
        memberships
    });
    // The selection is deterministic, so the same 5 ranks are members every
    // round: 5 ranks saw 50 memberships, 4 saw none.
    let mut counts = report.results.clone();
    counts.sort_unstable();
    assert_eq!(&counts[..4], &[0, 0, 0, 0]);
    assert_eq!(&counts[4..], &[50, 50, 50, 50, 50]);
}

#[test]
fn alternating_group_sizes() {
    // Alternate between a wide group (all 9) and a narrow one (2) so the
    // free set flips between empty and nearly full every round.
    let rt = HmpiRuntime::new(paper_lan());
    rt.run(|h| {
        let wide = ModelBuilder::new("wide").processors(9).build().unwrap();
        let narrow = ModelBuilder::new("narrow").processors(2).build().unwrap();
        for round in 0..20 {
            let model: &dyn perfmodel::PerformanceModel =
                if round % 2 == 0 { &wide } else { &narrow };
            let g = h.group_create(model).unwrap();
            if let Some(comm) = g.comm() {
                comm.barrier().unwrap();
            }
            if g.is_member() {
                h.group_free(g).unwrap();
            }
            // Everyone resynchronises before the next round so the
            // participant set is unambiguous (the paper's collective calling
            // convention).
            h.finalize().unwrap();
        }
    });
}

#[test]
fn interleaved_recon_and_groups() {
    let rt = HmpiRuntime::new(paper_lan());
    rt.run(|h| {
        let model = ModelBuilder::new("m")
            .processors(3)
            .volumes(vec![5.0, 10.0, 15.0])
            .build()
            .unwrap();
        for i in 0..10 {
            h.recon(1.0 + i as f64).unwrap();
            let g = h.group_create(&model).unwrap();
            if g.is_member() {
                h.group_free(g).unwrap();
            }
            h.finalize().unwrap();
        }
        assert_eq!(h.estimates().generation(), 10);
    });
}

#[test]
fn heavy_p2p_traffic_under_groups() {
    // Members exchange a burst of tagged messages every round; ordering and
    // isolation must hold across group generations.
    let rt = HmpiRuntime::new(paper_lan());
    rt.run(|h| {
        let model = ModelBuilder::new("pairs").processors(4).build().unwrap();
        for round in 0..10i64 {
            let g = h.group_create(&model).unwrap();
            if let Some(comm) = g.comm() {
                let me = comm.rank();
                let peer = me ^ 1; // 0<->1, 2<->3
                for k in 0..20i64 {
                    comm.send(&[round * 100 + k], peer, k as i32).unwrap();
                }
                for k in 0..20i64 {
                    let (v, _) = comm.recv::<i64>(peer, k as i32).unwrap();
                    assert_eq!(v[0], round * 100 + k);
                }
            }
            if g.is_member() {
                h.group_free(g).unwrap();
            }
            h.finalize().unwrap();
        }
    });
}

/// Regression stress for the recon late-report race. The fault-tolerant
/// recon's host used to condemn a rank whose benchmark report landed
/// after the host's per-rank deadline *without sending it an ACK*,
/// leaving the live rank blocked forever in its unbounded ACK receive —
/// a genuine deadlock the watchdog surfaced as a rare
/// `MpiError::Deadlock` (roughly once per few hundred recons, host-load
/// dependent). The host now sweeps late reports before marking nodes
/// unavailable, so 500 seeded iterations across random clusters must
/// come back clean on every rank.
#[test]
fn recon_ft_survives_five_hundred_seeded_clusters() {
    for seed in 0..500u64 {
        let rt = HmpiRuntime::new(Arc::new(Cluster::random(seed, 5)));
        let report = rt.run(move |h| {
            h.recon_opts(hmpi::Recon::new(1.0 + (seed % 7) as f64).fault_tolerant(true))
        });
        for (rank, r) in report.results.iter().enumerate() {
            assert!(r.is_ok(), "seed {seed} rank {rank}: {r:?}");
        }
    }
}

/// Stress for the counted doorbell under `Comm::agree`. Seven ranks deposit
/// at once and go to sleep on their doorbells; the eighth — a different rank
/// every round — deposits a little later in real time, while the others are
/// somewhere between their last check and their sleep. A deposit whose ring
/// is lost there costs its waiter a whole 250 ms backstop, so 200 rounds
/// would take whole multiples of that longer; none may be lost.
#[test]
fn two_hundred_staggered_agreements_lose_no_wakeup() {
    let rt = HmpiRuntime::new(Arc::new(Cluster::random(7, 8)));
    let start = std::time::Instant::now();
    let report = rt.run(|h| {
        let world = h.world();
        for round in 0..200 {
            if round % world.size() == world.rank() {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            let agreed = world.agree(true).unwrap();
            assert!(agreed.flag && agreed.failed.is_empty(), "round {round}");
        }
    });
    assert_eq!(report.wakeups.missed, 0, "{:?}", report.wakeups);
    assert!(report.wakeups.slept > 0, "the waiters did sleep");
    assert!(start.elapsed() < std::time::Duration::from_secs(2));
}
