//! The problem shape of every spec the bench binaries, the README,
//! CI, the examples and the cell-pinned tests hand to the synthesizer,
//! pinned field for field. A change to how a spec is read must leave
//! each of these shapes, and so the search CEGIS runs on it, as it is.

use fec_analyze::shape::DEFAULT_MAX_CHECK;
use fec_analyze::spec::parse_property;
use fec_analyze::ProblemShape;

/// (spec, `{:?}` of its `ProblemShape` at the default check window).
const PINS: &[(&str, &str)] = &[
    (
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = 2 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 2, check_lo: 2, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = 3 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 3, check_lo: 2, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = 4 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 4, check_lo: 2, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = 5 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 5, check_lo: 2, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = 6 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 6, check_lo: 2, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = 7 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 7, check_lo: 2, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = 8 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 8, check_lo: 2, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = 9 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 9, check_lo: 2, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = 10 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 10, check_lo: 2, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && corr(G0) >= 2 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 5, check_lo: 2, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 16 && len_c(G0) = 1 && md(G0) = 2",
        "ProblemShape { gens: [GenShape { data_len: 16, min_distance: 2, check_lo: 1, check_hi: 1, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 16 && len_c(G0) = 6 && md(G0) = 3",
        "ProblemShape { gens: [GenShape { data_len: 16, min_distance: 3, check_lo: 6, check_hi: 6, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 8 && len_c(G0) = 5 && md(G0) = 3",
        "ProblemShape { gens: [GenShape { data_len: 8, min_distance: 3, check_lo: 5, check_hi: 5, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 8 && len_c(G0) = 1 && md(G0) = 2",
        "ProblemShape { gens: [GenShape { data_len: 8, min_distance: 2, check_lo: 1, check_hi: 1, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && len_1(G0) = 72",
        "ProblemShape { gens: [GenShape { data_len: 32, min_distance: 3, check_lo: 17, check_hi: 17, ones_lo: Some(72), ones_hi: Some(72), pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && len_1(G0) = 136",
        "ProblemShape { gens: [GenShape { data_len: 32, min_distance: 3, check_lo: 17, check_hi: 17, ones_lo: Some(136), ones_hi: Some(136), pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && len_1(G0) = 180",
        "ProblemShape { gens: [GenShape { data_len: 32, min_distance: 3, check_lo: 17, check_hi: 17, ones_lo: Some(180), ones_hi: Some(180), pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && len_1(G0) = 200",
        "ProblemShape { gens: [GenShape { data_len: 32, min_distance: 3, check_lo: 17, check_hi: 17, ones_lo: Some(200), ones_hi: Some(200), pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 4 && len_c(G0) = 3 && md(G0) = 3 && minimal(len_1(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 3, check_lo: 3, check_hi: 3, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinOnes(0)) }",
    ),
    (
        "len_d(G0) = 4 && len_c(G0) = 3 && md(G0) = 4",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 4, check_lo: 3, check_hi: 3, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 8 && len_c(G0) = 4 && md(G0) = 3 && minimal(len_1(G0))",
        "ProblemShape { gens: [GenShape { data_len: 8, min_distance: 3, check_lo: 4, check_hi: 4, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinOnes(0)) }",
    ),
    (
        "len_d(G0) = 8 && len_c(G0) = 4 && md(G0) = 4",
        "ProblemShape { gens: [GenShape { data_len: 8, min_distance: 4, check_lo: 4, check_hi: 4, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 8 && len_c(G0) = 4 && md(G0) = 5",
        "ProblemShape { gens: [GenShape { data_len: 8, min_distance: 5, check_lo: 4, check_hi: 4, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 8 && len_c(G0) = 5 && md(G0) = 4 && minimal(len_1(G0))",
        "ProblemShape { gens: [GenShape { data_len: 8, min_distance: 4, check_lo: 5, check_hi: 5, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinOnes(0)) }",
    ),
    (
        "len_d(G0) = 8 && len_c(G0) = 5 && md(G0) = 5",
        "ProblemShape { gens: [GenShape { data_len: 8, min_distance: 5, check_lo: 5, check_hi: 5, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 8 && len_c(G0) = 5 && md(G0) = 6",
        "ProblemShape { gens: [GenShape { data_len: 8, min_distance: 6, check_lo: 5, check_hi: 5, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 12 && len_c(G0) = 5 && md(G0) = 3 && minimal(len_1(G0))",
        "ProblemShape { gens: [GenShape { data_len: 12, min_distance: 3, check_lo: 5, check_hi: 5, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinOnes(0)) }",
    ),
    (
        "len_d(G0) = 12 && len_c(G0) = 5 && md(G0) = 4",
        "ProblemShape { gens: [GenShape { data_len: 12, min_distance: 4, check_lo: 5, check_hi: 5, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 12 && len_c(G0) = 5 && md(G0) = 5",
        "ProblemShape { gens: [GenShape { data_len: 12, min_distance: 5, check_lo: 5, check_hi: 5, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 12 && len_c(G0) = 5 && md(G0) = 6",
        "ProblemShape { gens: [GenShape { data_len: 12, min_distance: 6, check_lo: 5, check_hi: 5, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 16 && len_c(G0) = 6 && md(G0) = 4 && minimal(len_1(G0))",
        "ProblemShape { gens: [GenShape { data_len: 16, min_distance: 4, check_lo: 6, check_hi: 6, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinOnes(0)) }",
    ),
    (
        "len_d(G0) = 16 && len_c(G0) = 6 && md(G0) = 5",
        "ProblemShape { gens: [GenShape { data_len: 16, min_distance: 5, check_lo: 6, check_hi: 6, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 16 && len_c(G0) = 6 && md(G0) = 6",
        "ProblemShape { gens: [GenShape { data_len: 16, min_distance: 6, check_lo: 6, check_hi: 6, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 16 && len_c(G0) = 6 && md(G0) = 7",
        "ProblemShape { gens: [GenShape { data_len: 16, min_distance: 7, check_lo: 6, check_hi: 6, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4 && md(G0) = 3 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 3, check_lo: 1, check_hi: 4, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 3, check_lo: 1, check_hi: 4, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 4 && md(G0) = 3 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 3, check_lo: 1, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 8 && len_c(G0) <= 8 && maximal(md(G0))",
        "ProblemShape { gens: [GenShape { data_len: 8, min_distance: 1, check_lo: 1, check_hi: 8, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MaxDistance(0)) }",
    ),
    (
        "len_d(G0) = 4 && md(G0) = 3",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 3, check_lo: 1, check_hi: 14, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 4 && len_c(G0) = 30000 && md(G0) = 3",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 3, check_lo: 30000, check_hi: 30000, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
    (
        "len_d(G0) = 4 && len_c(G0) = 3 && md(G0) = 3 && G0(0, 4) = 1 && G0(0, 5) = 0",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 3, check_lo: 3, check_hi: 3, ones_lo: None, ones_hi: None, pinned_cells: [(0, 0, true), (0, 1, false)] }], objective: None }",
    ),
    (
        "len_d(G0) = 4 && len_c(G0) = 3 && md(G0) = 3 && G0(0, 4) = 1",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 3, check_lo: 3, check_hi: 3, ones_lo: None, ones_hi: None, pinned_cells: [(0, 0, true)] }], objective: None }",
    ),
    (
        "len_d(G0) = 4 && len_c(G0) = 4 && G0(0, 4) = 0 && maximal(md(G0))",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 1, check_lo: 4, check_hi: 4, ones_lo: None, ones_hi: None, pinned_cells: [(0, 0, false)] }], objective: Some(MaxDistance(0)) }",
    ),
    (
        "len_d(G0) = 16 && len_c(G0) = 8 && md(G0) = 3 && minimal(len_1(G0))",
        "ProblemShape { gens: [GenShape { data_len: 16, min_distance: 3, check_lo: 8, check_hi: 8, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinOnes(0)) }",
    ),
    (
        "len_d(G0) = 6 && 2 <= len_c(G0) <= 6 && md(G0) = 3 && minimal(len_c(G0))",
        "ProblemShape { gens: [GenShape { data_len: 6, min_distance: 3, check_lo: 2, check_hi: 6, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinCheckLen(0)) }",
    ),
    (
        "len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && minimal(len_1(G0))",
        "ProblemShape { gens: [GenShape { data_len: 32, min_distance: 3, check_lo: 17, check_hi: 17, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: Some(MinOnes(0)) }",
    ),
    (
        "len_G = 2 && len_d(G0) = 4 && len_c(G0) = 3 && md(G0) = 3 && len_d(G1) = 8 && len_c(G1) = 1 && md(G1) = 2",
        "ProblemShape { gens: [GenShape { data_len: 4, min_distance: 3, check_lo: 3, check_hi: 3, ones_lo: None, ones_hi: None, pinned_cells: [] }, GenShape { data_len: 8, min_distance: 2, check_lo: 1, check_hi: 1, ones_lo: None, ones_hi: None, pinned_cells: [] }], objective: None }",
    ),
];

fn shape(src: &str) -> ProblemShape {
    let prop = parse_property(src).expect("pinned spec parses");
    ProblemShape::from_prop(&prop, DEFAULT_MAX_CHECK).expect("pinned spec has a shape")
}

#[test]
fn shipped_specs_keep_their_shapes() {
    for (src, pinned) in PINS {
        assert_eq!(format!("{:?}", shape(src)), *pinned, "{src}");
    }
}

#[test]
fn fixed_length_points_keep_their_shapes() {
    // analyze_bench's [n, k, d] sweep form
    for k in 2..=8 {
        for r in 1..=6 {
            for d in 2..=7 {
                let s = shape(&format!(
                    "len_d(G0) = {k} && len_c(G0) = {r} && md(G0) >= {d}"
                ));
                assert_eq!(s.objective, None);
                let g = &s.gens[..];
                assert_eq!(g.len(), 1);
                assert_eq!(
                    (
                        g[0].data_len,
                        g[0].min_distance,
                        g[0].check_lo,
                        g[0].check_hi
                    ),
                    (k, d, r, r)
                );
                assert!(g[0].is_pure_point());
            }
        }
    }
}
