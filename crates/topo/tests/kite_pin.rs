//! Pins every Kite reconstruction to a recorded adjacency digest.
//!
//! `expert::kite` is a greedy fill: each round adds the duplex link that
//! most lowers total hops, ties broken towards shorter spans and lower
//! router indices.  Any change to how a round scores or orders its
//! candidates that picks a different link changes the adjacency, and with
//! it every Kite number downstream (Table II, routes, simulations).  The
//! cases cover the paper's three layouts, three generic grids with radix
//! 4, 5 and 6, and an odd-by-odd grid, under the three standard classes
//! and one custom class.  A mismatch lists every case that moved.

use netsmith_topo::expert;
use netsmith_topo::layout::Layout;
use netsmith_topo::linkclass::{LinkClass, LinkSpan};

/// 64-bit FNV-1a over the topology's name, router count and row-major
/// adjacency (one byte per ordered pair).
fn digest(t: &netsmith_topo::topology::Topology) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &b in t.name().as_bytes() {
        eat(b);
    }
    for b in (t.num_routers() as u64).to_le_bytes() {
        eat(b);
    }
    for &link in t.adjacency() {
        eat(link as u8);
    }
    h
}

fn classes() -> [LinkClass; 4] {
    [
        LinkClass::Small,
        LinkClass::Medium,
        LinkClass::Large,
        LinkClass::Custom(LinkSpan::new(3, 1)),
    ]
}

/// Each case: a label, a layout and its digests in [`classes`] order.
fn cases() -> Vec<(&'static str, Layout, [u64; 4])> {
    vec![
        (
            "4x5",
            Layout::noi_4x5(),
            [
                0x55e9_16a1_cd5c_4f92,
                0x7f3c_db93_77d1_953a,
                0x3970_076a_88b4_9092,
                0x285a_d3f9_e24b_0d47,
            ],
        ),
        (
            "6x5",
            Layout::noi_6x5(),
            [
                0x16bf_8ee9_e459_a08c,
                0x02d5_6ca8_9c60_c71e,
                0xd2ec_05c1_207e_2954,
                0xf62c_bbf2_dd49_42c7,
            ],
        ),
        (
            "8x6",
            Layout::noi_8x6(),
            [
                0xbb02_091a_38ba_94c6,
                0xf157_7d67_eeda_c76e,
                0xa694_f2a5_b0bb_f8e6,
                0x5428_929e_ab0e_d913,
            ],
        ),
        (
            "2x7r4",
            Layout::interposer_grid(2, 7, 4),
            [
                0x2e80_5299_ddb6_5f96,
                0x0a19_7287_2494_cf80,
                0xfb84_5845_946a_3f30,
                0xe4db_8bc8_2e20_7f01,
            ],
        ),
        (
            "4x6r6",
            Layout::interposer_grid(4, 6, 6),
            [
                0xaab0_d9ff_ecb9_921e,
                0xf44d_ac25_c79c_c8b6,
                0x830d_8f1a_1cde_d4be,
                0x7679_5c04_7bb6_ac87,
            ],
        ),
        (
            "6x6r5",
            Layout::interposer_grid(6, 6, 5),
            [
                0xa22d_e085_ddb8_3262,
                0xfd20_88ca_9412_2cd8,
                0xccb4_97f5_08bf_3ddc,
                0x80d2_41a0_fc0a_d37f,
            ],
        ),
        (
            "3x3r4",
            Layout::interposer_grid(3, 3, 4),
            [
                0x576f_ad6b_abcc_2533,
                0x244b_780a_7134_57c9,
                0xf737_cce7_db7e_643b,
                0x17b7_b3cb_8197_708e,
            ],
        ),
    ]
}

#[test]
fn kite_adjacency_digests_are_pinned() {
    let mut moved = Vec::new();
    for (label, layout, expected) in cases() {
        let got = classes().map(|class| digest(&expert::kite(&layout, class)));
        if got != expected {
            moved.push(format!(
                "(\"{label}\", ..., [{:#018x}, {:#018x}, {:#018x}, {:#018x}])",
                got[0], got[1], got[2], got[3]
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "Kite adjacency changed:\n{}",
        moved.join("\n")
    );
}
