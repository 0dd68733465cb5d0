//! Byte pins for BSSes whose client slots cross a 64-bit word
//! boundary. The engine keeps its per-slot state in `u64` bitsets, and
//! every other fleet test runs at most 40 clients per BSS, so only
//! these runs reach a second and a third word: 64 clients fill one
//! word exactly, 65 spill one slot into the second, and 129 one slot
//! into the third.
//!
//! Each run uses the `fleet_sim` churn settings (10 % refresh loss,
//! 20 % port churn, 12 s stale timeout) under one of three policies,
//! and records the FNV-1a hash of four outputs: the energy-extended
//! `hide-metrics/1` document, the summary, the trace JSONL and the
//! attribution CSV.

use hide_fleet::{ChurnConfig, FleetConfig, WakePolicy};
use hide_obs::export;
use hide_obs::spill::fnv1a64;

fn config(clients_per_bss: usize, policy: &str) -> FleetConfig {
    FleetConfig {
        bss_count: 3,
        clients_per_bss,
        adoption: 0.75,
        duration_secs: 60.0,
        seed: 2016,
        churn: ChurnConfig {
            mean_present_secs: 120.0,
            mean_absent_secs: 30.0,
            mean_active_secs: 10.0,
            mean_suspended_secs: 45.0,
            refresh_interval_secs: 5.0,
            refresh_loss: 0.1,
            port_churn: 0.2,
            stale_timeout_secs: 12.0,
            ..ChurnConfig::default()
        },
        policy: WakePolicy::parse(policy).expect("a valid policy spelling"),
        ..FleetConfig::default()
    }
}

/// `[metrics, summary, trace JSONL, attribution CSV]` hashes of one run.
fn hashes(cfg: &FleetConfig) -> [u64; 4] {
    let (result, flight) = cfg
        .try_run_traced_with_jobs(2, 1 << 18)
        .expect("valid fleet config");
    assert_eq!(flight.dropped(), 0, "the ring must hold the whole trace");
    [
        fnv1a64(result.metrics_json_with_energy().as_bytes()),
        fnv1a64(result.summary_json().as_bytes()),
        fnv1a64(export::to_jsonl(&flight).as_bytes()),
        fnv1a64(result.attribution().to_csv().as_bytes()),
    ]
}

#[test]
fn word_boundary_fleets_keep_their_bytes() {
    let pins: [(usize, &str, [u64; 4]); 9] = [
        (
            64,
            "hide",
            [
                0x3138_7c67_090f_6670,
                0x8d4c_4731_649f_5c68,
                0x6e3c_3996_d019_5c39,
                0x1289_219a_53d6_00e6,
            ],
        ),
        (
            65,
            "hide",
            [
                0xce64_30a8_268b_5a1d,
                0x7d3a_fd5c_e44c_2290,
                0x3f37_d49a_78d5_cfe5,
                0x2549_a4c1_dc5d_a0f1,
            ],
        ),
        (
            129,
            "hide",
            [
                0xf205_479c_9728_4d8c,
                0x2172_b9bb_fef0_5194,
                0xe31a_6f42_1c17_c38b,
                0x6700_f87e_1422_36af,
            ],
        ),
        (
            64,
            "psm",
            [
                0x000e_c1dd_3a2e_ef8e,
                0x3bb6_3d6f_bdca_2e7a,
                0x7218_36fe_102e_1912,
                0x59e0_55ac_a107_eb8d,
            ],
        ),
        (
            65,
            "psm",
            [
                0x1762_4504_ea4a_87c4,
                0xbac8_0741_c198_0310,
                0x0f14_6132_09fd_71aa,
                0x568f_8cd4_559d_4988,
            ],
        ),
        (
            129,
            "psm",
            [
                0x3fac_d9bc_22ad_7f4b,
                0x5c7c_c389_b902_0ab1,
                0xffe5_5240_2d2d_e081,
                0xc59c_2903_0764_f2e2,
            ],
        ),
        (
            64,
            "scheduled:8:1",
            [
                0x63aa_4e52_7acf_7281,
                0x58ae_53cf_ff23_818c,
                0x7550_7cbc_f055_cc7f,
                0x0db0_d076_2e31_9aca,
            ],
        ),
        (
            65,
            "scheduled:8:1",
            [
                0x3078_e546_f0b9_070c,
                0xa846_331c_5358_3a51,
                0xd1dd_e72f_b59b_eb56,
                0x0b8c_16f3_ff29_0271,
            ],
        ),
        (
            129,
            "scheduled:8:1",
            [
                0x6c83_8fe0_20d9_3fc4,
                0xcc30_ce9e_2b67_dd57,
                0x0059_dd91_48b5_6600,
                0x3d10_e863_68a9_3aa3,
            ],
        ),
    ];
    let mut failures = Vec::new();
    for (clients, policy, want) in pins {
        let got = hashes(&config(clients, policy));
        if got != want {
            failures.push(format!("({clients}, {policy:?}, {got:#x?}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "moved off their recorded bytes:\n{}",
        failures.join("\n")
    );
}
