//! Criterion: the data plane's per-packet costs — header codec, a full
//! forwarding walk, end-system recovery, and network-based deflection.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use splice_core::prelude::*;
use splice_core::slices::SplicingConfig;
use splice_graph::{EdgeMask, NodeId};
use splice_topology::sprint::sprint;

fn bench_header_codec(c: &mut Criterion) {
    c.bench_function("header_encode_decode_20hops_k10", |b| {
        let hops: Vec<u8> = (0..20).map(|i| (i % 10) as u8).collect();
        b.iter(|| {
            let h = ForwardingBits::from_hops(&hops, 10);
            let bytes = h.to_bytes();
            let mut back = ForwardingBits::from_bytes(&bytes).unwrap();
            let mut acc = 0usize;
            while let Some(s) = back.read_and_shift(10) {
                acc += s;
            }
            acc
        });
    });
}

fn bench_forwarding_walk(c: &mut Criterion) {
    let g = sprint().graph();
    let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 42);
    let mask = EdgeMask::all_up(g.edge_count());
    let fwd = Forwarder::new(&sp, &mask);
    let opts = ForwarderOptions::default();
    c.bench_function("forward_walk_sprint_k5", |b| {
        b.iter(|| {
            fwd.forward(
                NodeId(0),
                NodeId(47),
                ForwardingBits::stay_in_slice(0, 5),
                &opts,
            )
        });
    });
}

fn bench_end_system_recovery(c: &mut Criterion) {
    let g = sprint().graph();
    let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 42);
    let (_, edge) = sp.next_hop(0, NodeId(0), NodeId(47)).unwrap();
    let mask = EdgeMask::from_failed(g.edge_count(), &[edge]);
    let fwd = Forwarder::new(&sp, &mask);
    let opts = ForwarderOptions::default();
    let rec = EndSystemRecovery::default();
    c.bench_function("end_system_recovery_sprint_k5", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| rec.recover(&fwd, NodeId(0), NodeId(47), 0, &opts, &mut rng));
    });
}

fn bench_network_recovery(c: &mut Criterion) {
    let g = sprint().graph();
    let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 42);
    let (_, edge) = sp.next_hop(0, NodeId(0), NodeId(47)).unwrap();
    let mask = EdgeMask::from_failed(g.edge_count(), &[edge]);
    let nr = NetworkRecovery::default();
    c.bench_function("network_recovery_sprint_k5", |b| {
        b.iter(|| nr.forward(&sp, &mask, NodeId(0), NodeId(47), 0));
    });
}

criterion_group!(
    benches,
    bench_header_codec,
    bench_forwarding_walk,
    bench_end_system_recovery,
    bench_network_recovery
);
criterion_main!(benches);
