//! Golden outcome pins for `run_stream`.
//!
//! Every pin fixes one configuration's complete observable outcome:
//! the `StreamStats` fields, a digest of the reported `lost_words`, a
//! digest of the delivered bytes and a digest of every `BurstProfile`
//! field (its `Debug` rendering, which includes the private open-run
//! counters). A datapath change that is meant to be behaviour-neutral
//! must leave every pin unchanged.
//!
//! The grid covers both inner-kernel families (the 802.3df
//! `CircuitKernel` and a §4.3 `CompositeCode::from_map` ensemble),
//! interleaver depths 1, 3, 4 and 64 (partial final blocks included),
//! generation sizes 1, 7, 16 and 64, repair budgets 0, 1, 2 and 8,
//! payloads of 0, 1, 15, 16 and 5,001 bytes, and two Gilbert–Elliott
//! profiles. Two extra single codes pin a narrow (k = 4) and a
//! four-word (k = 200) data path.
//!
//! To re-record after an intended behaviour change, empty `PINS`, run
//! this test and paste the table its failure message prints.

use fec_channel::burst::GilbertElliott;
use fec_hamming::{standards, CompositeCode};
use fec_stream::{deterministic_payload, run_stream, InnerCode, StreamConfig, StreamOutcome};
use std::fmt::Write as _;

/// FNV-1a, 64-bit.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn harsh() -> GilbertElliott {
    GilbertElliott {
        p_gb: 0.01,
        p_bg: 0.05,
        ber_good: 1e-3,
        ber_bad: 0.5,
    }
}

fn composite() -> InnerCode {
    // alternate data bits between a Hamming segment and a parity
    // segment, as weighted synthesis interleaves them
    let map: Vec<usize> = (0..16).map(|j| j % 2).collect();
    let code = CompositeCode::from_map(
        vec![
            standards::shortened_hamming(8, 4).expect("shortened Hamming"),
            standards::parity_code(8),
        ],
        &map,
    )
    .expect("composite map");
    InnerCode::new(&code.generator())
}

fn inner(code: &str) -> InnerCode {
    match code {
        "8023df" => InnerCode::ieee_8023df(),
        "composite" => composite(),
        "h74" => InnerCode::new(&standards::hamming_7_4()),
        "wide200" => InnerCode::new(&standards::shortened_hamming(200, 9).expect("k = 200")),
        other => panic!("unknown code {other}"),
    }
}

/// One configuration: code, channel, depth, gen_size, repair, bytes.
type Case = (&'static str, &'static str, usize, usize, usize, usize);

fn cases() -> Vec<Case> {
    // (depth, gen_size, repair) triples: every value of each axis
    // appears twice, paired differently
    const TRIPLES: [(usize, usize, usize); 8] = [
        (1, 1, 0),
        (3, 7, 1),
        (4, 16, 2),
        (64, 64, 8),
        (1, 64, 2),
        (3, 16, 8),
        (4, 7, 0),
        (64, 1, 1),
    ];
    let mut out = Vec::new();
    for code in ["8023df", "composite"] {
        for channel in ["bursty", "harsh"] {
            for &(depth, gen, repair) in &TRIPLES {
                out.push((code, channel, depth, gen, repair, 5001));
            }
            for bytes in [0, 1, 15, 16] {
                for (depth, gen, repair) in [(3, 7, 1), (64, 64, 8)] {
                    out.push((code, channel, depth, gen, repair, bytes));
                }
            }
        }
    }
    for code in ["h74", "wide200"] {
        for (depth, gen, repair) in [(1, 16, 2), (3, 7, 1), (64, 64, 8)] {
            out.push((code, "harsh", depth, gen, repair, 5001));
        }
    }
    out
}

/// The pinned outcome of one case.
struct Pin {
    /// `StreamStats` in declaration order; the mean latency as f64 bits.
    stats: [u64; 13],
    lost: u64,
    bytes: u64,
    profile: u64,
}

fn observe(case: &Case, seed: u64) -> Pin {
    let &(code, channel, depth, gen_size, repair, bytes) = case;
    let cfg = StreamConfig {
        inner: inner(code),
        depth,
        gen_size,
        repair,
        seed,
        channel: match channel {
            "bursty" => GilbertElliott::bursty(),
            _ => harsh(),
        },
    };
    let payload = deterministic_payload(bytes, seed);
    let StreamOutcome {
        bytes: delivered,
        lost_words,
        stats: s,
        profile,
    } = run_stream(&payload, &cfg);
    assert_eq!(delivered.len(), payload.len());
    let lost: Vec<u8> = lost_words
        .iter()
        .flat_map(|&j| (j as u64).to_le_bytes())
        .collect();
    Pin {
        stats: [
            s.data_words,
            s.frames,
            s.channel_bits,
            s.channel_flips,
            s.erased_frames,
            s.erased_data_words,
            s.recovered_words,
            s.lost_words,
            s.corrupted_words,
            s.bursts_observed,
            s.recovery_latency_mean.to_bits(),
            s.recovery_latency_max,
            s.max_generation_erasures,
        ],
        lost: digest(&lost),
        bytes: digest(&delivered),
        profile: digest(format!("{profile:?}").as_bytes()),
    }
}

fn render(case: &Case, p: &Pin) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    ({:?}, {:?}, {}, {}, {}, {}, {:?}, {:#018x}, {:#018x}, {:#018x}),",
        case.0, case.1, case.2, case.3, case.4, case.5, p.stats, p.lost, p.bytes, p.profile
    );
    s
}

type Row = (
    &'static str,
    &'static str,
    usize,
    usize,
    usize,
    usize,
    [u64; 13],
    u64,
    u64,
    u64,
);

/// Recorded outcomes, one row per entry of `cases()`, in order.
#[rustfmt::skip]
const PINS: &[Row] = &[
    ("8023df", "bursty", 1, 1, 0, 5001, [334, 334, 42752, 121, 35, 35, 0, 35, 0, 0, 0, 0, 1], 0xf8a62f6a60f96620, 0x25c8dd571665dfd7, 0xab2b778f609d3616),
    ("8023df", "bursty", 3, 7, 1, 5001, [334, 382, 48896, 66, 47, 40, 9, 31, 0, 11, 4615939418075460039, 7, 5], 0x2c0a119544e6155c, 0xd0ed76d5dffd31ba, 0x89857ddeac238bc4),
    ("8023df", "bursty", 4, 16, 2, 5001, [334, 376, 48128, 116, 75, 69, 6, 63, 0, 9, 4620693217682128896, 14, 10], 0x9ac7fed071eaa8a8, 0x408d43f73c832bd8, 0xe4317ac0c00eca3c),
    ("8023df", "bursty", 64, 64, 8, 5001, [334, 382, 48896, 83, 73, 62, 11, 51, 0, 14, 4629649239668377041, 64, 19], 0x14a9f7d8620a0dc0, 0x27ee8090938cd4a3, 0x9af6b24d36b43b86),
    ("8023df", "bursty", 1, 64, 2, 5001, [334, 346, 44288, 128, 41, 39, 3, 36, 0, 6, 4625853592255157589, 36, 9], 0xcc9f737328d8ad16, 0xf9aef081ae6fa362, 0xd6f3e358e84adb39),
    ("8023df", "bursty", 3, 16, 8, 5001, [334, 502, 64256, 202, 100, 76, 54, 22, 0, 108, 4625102992317262507, 23, 10], 0x549a4c55443cce49, 0x542bdb4c3ee2830f, 0x54eb94e0595bfc6f),
    ("8023df", "bursty", 4, 7, 0, 5001, [334, 334, 42752, 93, 61, 61, 0, 61, 0, 0, 0, 0, 5], 0x7743fc55c000fa0d, 0xd229510d02d92112, 0xdfd60d761b484549),
    ("8023df", "bursty", 64, 1, 1, 5001, [334, 668, 85504, 310, 253, 128, 62, 66, 0, 137, 4607182418800017408, 1, 2], 0xf37c5b180480ff16, 0xb39c7e8dd21518c4, 0x7a9303c8231253cc),
    ("8023df", "bursty", 3, 7, 1, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xcbf29ce484222325, 0xf7b47005bd007002),
    ("8023df", "bursty", 64, 64, 8, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xcbf29ce484222325, 0xf7b47005bd007002),
    ("8023df", "bursty", 3, 7, 1, 1, [1, 2, 256, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xaf63ae4c86019e62, 0x378274079d5cc341),
    ("8023df", "bursty", 64, 64, 8, 1, [1, 9, 1152, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xaf63b04c8601a1c8, 0xe70f634eff82beba),
    ("8023df", "bursty", 3, 7, 1, 15, [1, 2, 256, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xd261383a966c2e4a, 0x378274079d5cc341),
    ("8023df", "bursty", 64, 64, 8, 15, [1, 9, 1152, 7, 6, 1, 1, 0, 0, 4, 4620693217682128896, 8, 6], 0xcbf29ce484222325, 0x852ab2b6caf90f8a, 0x71618ec5b2eb77c1),
    ("8023df", "bursty", 3, 7, 1, 16, [2, 3, 384, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xaf8f082d4e995c3b, 0x7708caf317aa7424),
    ("8023df", "bursty", 64, 64, 8, 16, [2, 10, 1280, 2, 2, 1, 1, 0, 0, 2, 4621256167635550208, 9, 2], 0xcbf29ce484222325, 0x77e3ec98465019bb, 0x1c5fa8a38871d0fe),
    ("8023df", "harsh", 1, 1, 0, 5001, [334, 334, 42752, 3401, 250, 250, 0, 250, 1, 0, 0, 0, 1], 0xbd08ce765e62afd5, 0xe3b1b8f47d77596d, 0xdf5ed9a3695fc076),
    ("8023df", "harsh", 3, 7, 1, 5001, [334, 382, 48896, 4252, 370, 324, 0, 324, 2, 0, 0, 0, 8], 0xa825b0692f54bc1e, 0x4d9c3d2abcd01406, 0x62ef8d2446763bf1),
    ("8023df", "harsh", 4, 16, 2, 5001, [334, 376, 48128, 3842, 367, 326, 0, 326, 2, 0, 0, 0, 18], 0xb3081bcd07f964a4, 0x82dcc74a420d5930, 0x0a25b3a18fa8b682),
    ("8023df", "harsh", 64, 64, 8, 5001, [334, 382, 48896, 4154, 380, 333, 0, 333, 1, 0, 0, 0, 72], 0xf7c4abfd772fd224, 0x01ff62860c192b32, 0xb549f40506194dc0),
    ("8023df", "harsh", 1, 64, 2, 5001, [334, 346, 44288, 3826, 270, 261, 0, 261, 2, 0, 0, 0, 57], 0x9a94f3d041e75327, 0xe99092a4cf3e5bc4, 0x74c4a6fe56832457),
    ("8023df", "harsh", 3, 16, 8, 5001, [334, 502, 64256, 5198, 481, 318, 0, 318, 3, 0, 0, 0, 24], 0xea4e3b7184b1c5e0, 0x416399ab440ae2c2, 0xe0c40769f42de8d5),
    ("8023df", "harsh", 4, 7, 0, 5001, [334, 334, 42752, 3704, 324, 324, 0, 324, 2, 0, 0, 0, 7], 0x36e4601d0da6189c, 0x742d800c7e59123f, 0x20617045ead8e373),
    ("8023df", "harsh", 64, 1, 1, 5001, [334, 668, 85504, 7215, 667, 334, 1, 333, 1, 9, 4607182418800017408, 1, 2], 0xec488a7277a9341f, 0xa84f3b973dfc518f, 0x9e5135a94f6484b6),
    ("8023df", "harsh", 3, 7, 1, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xcbf29ce484222325, 0xf7b47005bd007002),
    ("8023df", "harsh", 64, 64, 8, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xcbf29ce484222325, 0xf7b47005bd007002),
    ("8023df", "harsh", 3, 7, 1, 1, [1, 2, 256, 36, 2, 1, 0, 1, 0, 0, 0, 0, 2], 0xa8c7f832281a39c5, 0xaf63bd4c8601b7df, 0xa795db698eeb436e),
    ("8023df", "harsh", 64, 64, 8, 1, [1, 9, 1152, 112, 9, 1, 0, 1, 0, 0, 0, 0, 9], 0xa8c7f832281a39c5, 0xaf63bd4c8601b7df, 0xb55e80d119be6b53),
    ("8023df", "harsh", 3, 7, 1, 15, [1, 2, 256, 6, 2, 1, 0, 1, 0, 0, 0, 0, 2], 0xa8c7f832281a39c5, 0x2eb09ce4c4320587, 0xa795db698eeb436e),
    ("8023df", "harsh", 64, 64, 8, 15, [1, 9, 1152, 89, 9, 1, 0, 1, 0, 0, 0, 0, 9], 0xa8c7f832281a39c5, 0x2eb09ce4c4320587, 0xb55e80d119be6b53),
    ("8023df", "harsh", 3, 7, 1, 16, [2, 3, 384, 44, 3, 2, 0, 2, 0, 0, 0, 0, 3], 0x692558b056101a44, 0x88201fb960ff6465, 0x9ba1302642cee431),
    ("8023df", "harsh", 64, 64, 8, 16, [2, 10, 1280, 110, 10, 2, 0, 2, 0, 0, 0, 0, 10], 0x692558b056101a44, 0x88201fb960ff6465, 0x63d5baf1bffc094b),
    ("composite", "bursty", 1, 1, 0, 5001, [2501, 2501, 52521, 189, 67, 67, 0, 67, 1, 0, 0, 0, 1], 0xf46c1b67d375a699, 0xfb597aaaf4d8ca01, 0xa027b61322458bc2),
    ("composite", "bursty", 3, 7, 1, 5001, [2501, 2859, 60039, 168, 104, 89, 26, 63, 7, 41, 4616536048795325361, 7, 5], 0x04da0da284c877fc, 0x5d3e053b57e416fd, 0xf447c71324083595),
    ("composite", "bursty", 4, 16, 2, 5001, [2501, 2815, 59115, 189, 121, 109, 36, 73, 3, 47, 4621772205092853077, 17, 8], 0x013d573913588bb2, 0x44d97fd972303d6f, 0x1af31eba7224264a),
    ("composite", "bursty", 64, 64, 8, 5001, [2501, 2821, 59241, 151, 146, 131, 69, 62, 4, 69, 4630179740266775715, 68, 18], 0x287898d8c73be0b6, 0xd7a16e9443bbb9ea, 0xda40ff3f66ef61cd),
    ("composite", "bursty", 1, 64, 2, 5001, [2501, 2581, 54201, 193, 64, 64, 32, 32, 5, 77, 4628653681867227136, 64, 5], 0xf3c73b83d2b3008b, 0x82d2d145269e0846, 0x8bc133fab91d72d2),
    ("composite", "bursty", 3, 16, 8, 5001, [2501, 3757, 78897, 228, 150, 95, 89, 6, 3, 161, 4624709770720584324, 23, 8], 0xd5b5c8d4c5e3e3bf, 0x5ff7ad32c98192fb, 0x757ac7d8225e9015),
    ("composite", "bursty", 4, 7, 0, 5001, [2501, 2501, 52521, 233, 157, 157, 0, 157, 6, 0, 0, 0, 6], 0x8cc2b75223bedab7, 0x93436b248e2762fc, 0xbf5e3eb19d4c9e58),
    ("composite", "bursty", 64, 1, 1, 5001, [2501, 5002, 105042, 334, 323, 169, 116, 53, 0, 201, 4607182418800017408, 1, 2], 0x400bddfb84fa7618, 0x42c060a512f2eaa4, 0x8ec1530bf140dd65),
    ("composite", "bursty", 3, 7, 1, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xcbf29ce484222325, 0x95f24e2f284b05ac),
    ("composite", "bursty", 64, 64, 8, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xcbf29ce484222325, 0x95f24e2f284b05ac),
    ("composite", "bursty", 3, 7, 1, 1, [1, 2, 42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xaf63c24c8601c05e, 0xf3288b938efcf210),
    ("composite", "bursty", 64, 64, 8, 1, [1, 9, 189, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xaf64964c8603289a, 0xb53d52c013531389),
    ("composite", "bursty", 3, 7, 1, 15, [8, 10, 210, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0x76cf163c3a5feea7, 0x110bc2075f00af9a),
    ("composite", "bursty", 64, 64, 8, 15, [8, 16, 336, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xd076cdc4e005898d, 0xfc32880cc44edbdf),
    ("composite", "bursty", 3, 7, 1, 16, [8, 10, 210, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0x7054063442821c08, 0x110bc2075f00af9a),
    ("composite", "bursty", 64, 64, 8, 16, [8, 16, 336, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xb4e2fd4ffe109b02, 0xfc32880cc44edbdf),
    ("composite", "harsh", 1, 1, 0, 5001, [2501, 2501, 52521, 4476, 764, 764, 0, 764, 36, 0, 0, 0, 1], 0xaaeffeb0fbc4bb7c, 0x1ff0177a6a3ee190, 0x0f18944894ac9bc8),
    ("composite", "harsh", 3, 7, 1, 5001, [2501, 2859, 60039, 5169, 1315, 1150, 21, 1129, 51, 76, 4617744432211826786, 7, 8], 0x8932b95093760823, 0x3d7efdd6531b9660, 0x95b7748f27930417),
    ("composite", "harsh", 4, 16, 2, 5001, [2501, 2815, 59115, 4836, 1496, 1327, 12, 1315, 46, 30, 4623554879945353899, 17, 18], 0x235d2497f4266b6a, 0xc79c6617d792f274, 0x46260a5c3883b87e),
    ("composite", "harsh", 64, 64, 8, 5001, [2501, 2821, 59241, 5097, 2257, 2020, 2, 2018, 116, 4, 4622100592565682176, 12, 69], 0x18524da299aec429, 0xd2512fe419db5b58, 0x045cec9cc41fb595),
    ("composite", "harsh", 1, 64, 2, 5001, [2501, 2581, 54201, 4928, 851, 829, 0, 829, 27, 1, 0, 0, 30], 0x87180d7d316da174, 0x9d0143d5264ccf66, 0x129c9be79df6c867),
    ("composite", "harsh", 3, 16, 8, 5001, [2501, 3757, 78897, 6118, 1683, 1104, 193, 911, 78, 791, 4624800127186881265, 23, 21], 0xb27db0b791aa9676, 0x645d8b298b2dfb5b, 0x549a5b8aa387f006),
    ("composite", "harsh", 4, 7, 0, 5001, [2501, 2501, 52521, 4516, 1341, 1341, 0, 1341, 39, 0, 0, 0, 7], 0x1b6f189da85b1d4a, 0xcc7af2b0303e1d97, 0x2cf4da2ad2fe4ab8),
    ("composite", "harsh", 64, 1, 1, 5001, [2501, 5002, 105042, 9031, 3907, 1960, 357, 1603, 239, 1183, 4607182418800017408, 1, 2], 0x17ff7f1a0457f498, 0x545b4757c3d6d1f4, 0xfb85898f7c13e05f),
    ("composite", "harsh", 3, 7, 1, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xcbf29ce484222325, 0x95f24e2f284b05ac),
    ("composite", "harsh", 64, 64, 8, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xcbf29ce484222325, 0x95f24e2f284b05ac),
    ("composite", "harsh", 3, 7, 1, 1, [1, 2, 42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xcbf29ce484222325, 0xaf64184c86025280, 0xf3288b938efcf210),
    ("composite", "harsh", 64, 64, 8, 1, [1, 9, 189, 10, 7, 1, 1, 0, 0, 6, 4620693217682128896, 8, 7], 0xcbf29ce484222325, 0xaf645c4c8602c60c, 0x8332c37f06ed3a8d),
    ("composite", "harsh", 3, 7, 1, 15, [8, 10, 210, 10, 3, 3, 0, 3, 0, 0, 0, 0, 3], 0x70c9b82103059f06, 0x364e39b50fe281a2, 0x7a4a86364f64d39b),
    ("composite", "harsh", 64, 64, 8, 15, [8, 16, 336, 7, 6, 4, 4, 0, 0, 6, 4622522805030748160, 14, 6], 0xcbf29ce484222325, 0x9442e7a3f44ca7cf, 0x0a9b41373b6321d6),
    ("composite", "harsh", 3, 7, 1, 16, [8, 10, 210, 6, 3, 3, 0, 3, 0, 0, 0, 0, 3], 0x70c9b82103059f06, 0xdefbc5e778f79b6c, 0x7a4a86364f64d39b),
    ("composite", "harsh", 64, 64, 8, 16, [8, 16, 336, 60, 15, 8, 0, 8, 0, 0, 0, 0, 15], 0xb0099f969b546f25, 0x88201fb960ff6465, 0x2bf8c10478d66a66),
    ("h74", "harsh", 1, 16, 2, 5001, [10002, 11254, 78778, 6229, 1996, 1776, 227, 1549, 211, 397, 4621809197766003744, 17, 16], 0xe60e4836853a52ef, 0xae4932096d720fea, 0x86d8f05d4cdc36d1),
    ("h74", "harsh", 3, 7, 1, 5001, [10002, 11431, 80017, 6914, 2810, 2469, 124, 2345, 158, 238, 4617224719582016941, 7, 8], 0xd1446c0240b4424b, 0x1b3c70aa14271ed9, 0x04714f21c9ec2eb9),
    ("h74", "harsh", 64, 64, 8, 5001, [10002, 11258, 78806, 6563, 5050, 4468, 26, 4442, 31, 27, 4630701818296321260, 70, 59], 0x25b95d065aa33441, 0x4ee2cba26ae2bc12, 0x78350b4139d9b6ed),
    ("wide200", "harsh", 1, 16, 2, 5001, [201, 227, 47443, 4020, 201, 176, 0, 176, 1, 0, 0, 0, 18], 0x1d4df4b69d13c262, 0x5f791b5f3c58bf74, 0x0a0a7b54ac578919),
    ("wide200", "harsh", 3, 7, 1, 5001, [201, 230, 48070, 3982, 227, 198, 0, 198, 2, 0, 0, 0, 8], 0x951cb6d7b00458ca, 0xa1a9e63cdd0ecb8d, 0x4403878c7ce8712c),
    ("wide200", "harsh", 64, 64, 8, 5001, [201, 233, 48697, 4081, 233, 201, 0, 201, 0, 0, 0, 0, 72], 0x91d587bc6a0d7f8d, 0xa47108bd730adbbf, 0xc337991f543593c4),
];

#[test]
fn golden_outcomes_match_the_recorded_pins() {
    let cases = cases();
    let observed: Vec<Pin> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| observe(c, 1000 + i as u64))
        .collect();
    let table: String = cases
        .iter()
        .zip(&observed)
        .map(|(c, p)| render(c, p) + "\n")
        .collect();
    assert_eq!(
        PINS.len(),
        cases.len(),
        "pin table out of date; observed:\n{table}"
    );
    let mut diffs = Vec::new();
    for ((case, got), pin) in cases.iter().zip(&observed).zip(PINS) {
        let want = Pin {
            stats: pin.6,
            lost: pin.7,
            bytes: pin.8,
            profile: pin.9,
        };
        assert_eq!(
            (case.0, case.1, case.2, case.3, case.4, case.5),
            (pin.0, pin.1, pin.2, pin.3, pin.4, pin.5),
            "case order changed"
        );
        if render(case, got) != render(case, &want) {
            diffs.push(format!(
                "want {}\n got {}",
                render(case, &want),
                render(case, got)
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} of {} pins differ:\n{}",
        diffs.len(),
        cases.len(),
        diffs.join("\n")
    );
}
