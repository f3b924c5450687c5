//! Byte-identity pins for the renumbering pipeline.
//!
//! `renumber` and `rcm_order` are pure functions of their input, and
//! downstream simulated numbers depend on every id they emit. These tests
//! pin FNV-1a hashes of their outputs on fixed seeded graphs, so any change
//! that moves a single id, community, level or modularity bit fails here.

use gnnadvisor_graph::community::louvain;
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::reorder::{rcm_order, renumber, RenumberConfig};
use gnnadvisor_graph::{Csr, GraphBuilder, NodeId};

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[derive(Debug, PartialEq, Eq)]
struct Pin {
    permutation: u64,
    community_of: u64,
    num_communities: usize,
    levels: usize,
    modularity_bits: u64,
}

fn pin_of(g: &Csr) -> Pin {
    let config = RenumberConfig::default();
    let r = renumber(g, &config).expect("renumber");
    let detected = louvain(g, &config.louvain);
    assert_eq!(
        detected.community_of, r.community_of,
        "renumber must report louvain's partition"
    );
    Pin {
        permutation: fnv1a((0..g.num_nodes() as NodeId).map(|v| r.permutation.new_of(v))),
        community_of: fnv1a(r.community_of.iter().copied()),
        num_communities: r.num_communities,
        levels: detected.levels,
        modularity_bits: r.modularity.to_bits(),
    }
}

/// The `artist` Table-1 shape (mean degree ~32, community-size cv 0.9) at
/// a test-friendly size.
fn artist_shaped() -> Csr {
    let params = CommunityParams {
        num_nodes: 2_500,
        num_edges: 80_000,
        mean_community: 120,
        community_size_cv: 0.9,
        inter_fraction: 0.1,
        shuffle_ids: true,
    };
    community_graph(&params, 1).expect("valid").0
}

fn shuffled_cv03(seed: u64) -> Csr {
    let params = CommunityParams {
        num_nodes: 1_500,
        num_edges: 24_000,
        mean_community: 40,
        community_size_cv: 0.3,
        inter_fraction: 0.08,
        shuffle_ids: true,
    };
    community_graph(&params, seed).expect("valid").0
}

#[test]
fn artist_shaped_graph_renumbers_byte_identically() {
    assert_eq!(
        pin_of(&artist_shaped()),
        Pin {
            permutation: 0xe776a5e9b1fae6d5,
            community_of: 0x0906fe1bf2b5dfe1,
            num_communities: 18,
            levels: 2,
            modularity_bits: 0x3fea56546b3581e6,
        }
    );
}

#[test]
fn shuffled_id_graph_renumbers_byte_identically() {
    assert_eq!(
        pin_of(&shuffled_cv03(7)),
        Pin {
            permutation: 0x2459ec2bbd31be69,
            community_of: 0x6174972b46eaf9d2,
            num_communities: 37,
            levels: 2,
            modularity_bits: 0x3febfec19e3e597d,
        }
    );
}

/// 32 isolated nodes appended after the community graph: the shape a
/// node-arrival stream produces before the arrivals gain edges.
#[test]
fn appended_isolated_nodes_renumber_byte_identically() {
    let g = shuffled_cv03(101);
    let mut b = GraphBuilder::new(g.num_nodes() + 32);
    for (v, u) in g.edges() {
        if v < u {
            b = b.undirected_edge(v, u);
        }
    }
    let g = b.build().expect("valid");
    assert_eq!(
        pin_of(&g),
        Pin {
            permutation: 0x5c353359d2923465,
            community_of: 0xb268aa589ff5ffb2,
            num_communities: 69,
            levels: 2,
            modularity_bits: 0x3febfbd1a237846f,
        }
    );
}

#[test]
fn rcm_over_the_whole_node_set_is_byte_identical() {
    let g = artist_shaped();
    let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    assert_eq!(fnv1a(rcm_order(&g, &all)), 0xee2094d856fbf611);
}
