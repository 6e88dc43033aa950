//! The span-instrumented EM3D and MM drivers the traced `paper_pipeline`
//! runs must be the same programs as `hmpi_apps::{em3d, matmul}::run_hmpi`
//! the untraced run calls: bit-identical `time`, `members` and `predicted`
//! (and results) on the benchmark's inputs, with spans on or off.

#![deny(deprecated)]

use hetsim::Cluster;
use hmpi_apps::em3d::{self, Em3dConfig};
use hmpi_apps::matmul;
use hmpi_ledger::drivers;
use hmpi_ledger::span::Spans;
use hmpi_ledger::workloads::paper_pipeline::{EM3D, MM};
use std::sync::Arc;

#[test]
fn em3d_driver_is_bit_identical_to_run_hmpi() {
    let (p, base, spread, niter, k) = EM3D;
    for (graph_seed, record) in [(0xE3D_u64, true), (0x5EED, false)] {
        let cfg = Em3dConfig::ramp(p, base, spread, graph_seed);
        let lan = || Arc::new(Cluster::paper_lan_em3d());
        let want = em3d::run_hmpi(lan(), &cfg, niter, k);

        let spans = Spans::new(record);
        let op = spans.begin_op(0);
        let (got, trace) = drivers::em3d_hmpi(lan(), &cfg, niter, k, &spans, op);
        spans.end(op);

        assert_eq!(got.time.to_bits(), want.time.to_bits(), "virtual time");
        assert_eq!(got.members, want.members, "selected group");
        assert_eq!(
            got.predicted.map(f64::to_bits),
            want.predicted.map(f64::to_bits),
            "group_create prediction"
        );
        assert_eq!(got.fields, want.fields, "computed fields");
        // Tracing follows the spans: on together, off together.
        assert_eq!(trace.is_some(), record);
        assert_eq!(spans.is_empty(), !record);
        if record {
            let ledger = spans.ledger();
            for stage in [
                "hmpi.recon",
                "hmpi.group_create",
                "apps.kernel",
                "perfmodel.compile",
            ] {
                assert!(
                    ledger.by_name.contains_key(stage),
                    "no {stage} span:\n{}",
                    ledger.render()
                );
            }
            assert!(ledger.accounted() > 0.9, "{}", ledger.render());
        }
    }
}

#[test]
fn matmul_driver_is_bit_identical_to_run_hmpi() {
    let (m, n, r, l_fixed) = MM;
    for (l, record) in [(None, true), (Some(l_fixed), false)] {
        let lan = || Arc::new(Cluster::paper_lan_matmul());
        let want = matmul::run_hmpi(lan(), m, n, r, l);

        let spans = Spans::new(record);
        let op = spans.begin_op(0);
        let (got, _) = drivers::matmul_hmpi(lan(), m, n, r, l, &spans, op);
        spans.end(op);

        assert_eq!(
            got.time.to_bits(),
            want.time.to_bits(),
            "virtual time (l = {l:?})"
        );
        assert_eq!(got.members, want.members, "selected group (l = {l:?})");
        assert_eq!(
            got.predicted.map(f64::to_bits),
            want.predicted.map(f64::to_bits),
            "group_create prediction (l = {l:?})"
        );
        assert_eq!(got.l, want.l, "generalised block size");
        let (got_c, want_c) = (got.c.expect("C gathered"), want.c.expect("C gathered"));
        assert_eq!(got_c.data(), want_c.data(), "product");
        if l.is_none() {
            // The sweep ran under its own span, once.
            assert_eq!(spans.durations_ms("hmpi.timeof_sweep").len(), 1);
        }
    }
}
