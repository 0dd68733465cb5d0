//! Micro-benchmarks of the HIDE protocol primitives: the Client UDP
//! Port Table (the τ_ins/τ_del/τ_lp of Eqs. 25–26), Algorithm 1, and
//! the wire codecs on the beacon fast path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hide_core::ap::{
    calculate_broadcast_flags, AccessPoint, ApCtx, BroadcastBuffer, ClientPortTable,
};
use hide_wifi::bitmap::PartialVirtualBitmap;
use hide_wifi::frame::{Beacon, BroadcastDataFrame, UdpPortMessage};
use hide_wifi::ie::{Btim, InformationElement};
use hide_wifi::mac::{Aid, MacAddr};
use hide_wifi::udp::UdpDatagram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn seeded_table(clients: u16, ports_each: usize, seed: u64) -> ClientPortTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = ClientPortTable::new();
    for c in 1..=clients {
        let ports: Vec<u16> = (0..ports_each)
            .map(|_| rng.gen_range(1024..u16::MAX))
            .collect();
        table.update_client(Aid::new(c).unwrap(), &ports);
    }
    table
}

fn port_table_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("port_table");
    // The paper's measurement seeds the table with N * 50% * 50 pairs;
    // we sweep the client count.
    for clients in [10u16, 50, 200] {
        let ports: Vec<u16> = (3000..3050).collect();
        group.bench_with_input(
            BenchmarkId::new("refresh_50_ports", clients),
            &clients,
            |b, &clients| {
                let mut table = seeded_table(clients, 50, 7);
                let probe = Aid::new(2000).unwrap();
                b.iter(|| {
                    table.update_client(probe, black_box(&ports));
                    table.remove_client(probe);
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lookup", clients),
            &clients,
            |b, &clients| {
                let table = seeded_table(clients, 50, 7);
                b.iter(|| black_box(table.clients_for_port(black_box(30000))))
            },
        );
    }
    group.finish();
}

fn port_table_scale(c: &mut Criterion) {
    // The table at BSS sizes where the asymptotics show (the paper's
    // capacity analysis goes to ~50 nodes; stress well beyond that).
    let mut group = c.benchmark_group("port_table_scale");
    let refresh: Vec<u16> = (3000..3100).collect();
    for clients in [1000u16, 2000] {
        group.bench_with_input(
            BenchmarkId::new("hash/refresh_100_ports", clients),
            &clients,
            |b, &clients| {
                let mut table = seeded_table(clients, 100, 7);
                let probe = Aid::new(2005).unwrap();
                b.iter(|| {
                    table.update_client(probe, black_box(&refresh));
                    table.remove_client(probe);
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("hash/lookup", clients),
            &clients,
            |b, &clients| {
                let table = seeded_table(clients, 100, 7);
                b.iter(|| black_box(table.postings_for_port(black_box(30000)).len()))
            },
        );
    }
    group.finish();
}

fn btim_codec(c: &mut Criterion) {
    // The BTIM is rebuilt every DTIM beacon; encode must not allocate.
    let mut flags = PartialVirtualBitmap::new();
    for v in (1..=1000u16).step_by(3) {
        flags.set(Aid::new(v).unwrap());
    }
    let btim = Btim::new(flags);
    let body = btim.encode_body();
    let mut scratch: Vec<u8> = Vec::with_capacity(body.len());
    c.bench_function("codec/btim_encode_1000_aids", |b| {
        b.iter(|| {
            scratch.clear();
            btim.append_body_to(&mut scratch);
            black_box(scratch.len())
        })
    });
    c.bench_function("codec/btim_decode_1000_aids", |b| {
        b.iter(|| black_box(Btim::decode_body(&body).unwrap()))
    });
}

fn algorithm_one(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1");
    for buffered in [1usize, 10, 100] {
        let table = seeded_table(50, 50, 11);
        let mut buffer = BroadcastBuffer::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..buffered {
            let d = UdpDatagram::new(
                [10, 0, 0, 1],
                [255; 4],
                4000,
                rng.gen_range(1024..u16::MAX),
                vec![0; 100],
            );
            buffer.push(BroadcastDataFrame::new(MacAddr::station(0), d, false));
        }
        group.bench_with_input(
            BenchmarkId::new("calc_flags", buffered),
            &buffered,
            |b, _| b.iter(|| black_box(calculate_broadcast_flags(&buffer, &table))),
        );
    }
    group.finish();
}

fn wire_codecs(c: &mut Criterion) {
    let mut flags = PartialVirtualBitmap::new();
    for v in (1..200).step_by(7) {
        flags.set(Aid::new(v).unwrap());
    }
    let beacon = Beacon::builder(MacAddr::station(0))
        .dtim(0, 1)
        .element(InformationElement::Btim(Btim::new(flags)))
        .build();
    let beacon_bytes = beacon.to_bytes();
    c.bench_function("codec/beacon_encode", |b| {
        b.iter(|| black_box(beacon.to_bytes()))
    });
    c.bench_function("codec/beacon_parse", |b| {
        b.iter(|| black_box(Beacon::parse(&beacon_bytes).unwrap()))
    });

    let msg = UdpPortMessage::new(
        MacAddr::station(1),
        MacAddr::station(0),
        (0..100u16).map(|i| 1024 + i),
    )
    .unwrap();
    let msg_bytes = msg.to_bytes();
    c.bench_function("codec/port_message_parse", |b| {
        b.iter(|| black_box(UdpPortMessage::parse(&msg_bytes).unwrap()))
    });

    let dgram = UdpDatagram::new([10, 0, 0, 1], [255; 4], 4000, 1900, vec![0; 300]);
    let frame = BroadcastDataFrame::new(MacAddr::station(0), dgram, false);
    let body = frame.body().to_vec();
    c.bench_function("codec/peek_udp_port", |b| {
        b.iter(|| black_box(UdpDatagram::peek_dst_port(&body).unwrap()))
    });
}

fn dtim_cycle(c: &mut Criterion) {
    // The AP's per-DTIM work end to end: flags + beacon build + drain.
    let mut ap = AccessPoint::new(MacAddr::station(0));
    let mut rng = StdRng::seed_from_u64(5);
    for i in 1..=50u32 {
        let mac = MacAddr::station(i);
        ap.associate(mac).unwrap();
        let ports: Vec<u16> = (0..50).map(|_| rng.gen_range(1024..u16::MAX)).collect();
        let msg = UdpPortMessage::new(mac, ap.bssid(), ports).unwrap();
        ap.process_port_message(&msg, &mut ApCtx::untimed())
            .unwrap();
    }
    c.bench_function("ap/dtim_cycle_10_frames", |b| {
        let mut index = 0u64;
        b.iter(|| {
            for _ in 0..10 {
                let d = UdpDatagram::new(
                    [10, 0, 0, 1],
                    [255; 4],
                    4000,
                    rng.gen_range(1024..u16::MAX),
                    vec![0; 200],
                );
                ap.enqueue_broadcast(BroadcastDataFrame::new(ap.bssid(), d, false));
            }
            let beacon = ap.dtim_beacon(index);
            index += 1;
            let burst = ap.deliver_broadcasts();
            black_box((beacon, burst))
        })
    });
}

criterion_group!(
    micro,
    port_table_ops,
    port_table_scale,
    algorithm_one,
    wire_codecs,
    btim_codec,
    dtim_cycle
);
criterion_main!(micro);
