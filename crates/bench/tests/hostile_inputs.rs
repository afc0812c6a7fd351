//! Hostile-input tests for the decoders of outside bytes this crate feeds:
//! the bench-file loader and the job API's request parser.
//!
//! Each property mutates a real, valid input — the committed
//! `BENCH_throughput.json` and the canonical quick-study request — by
//! truncating it, splicing a slice of it back in elsewhere, flipping
//! bytes, or inflating it with a long run of one byte (digits lengthen
//! numbers, brackets deepen nesting, quotes and letters stretch strings).
//! Every mutant must decode to a typed error or a valid value; a panic or
//! a stack overflow fails the test.

use fx8_bench::throughput;
use fx8_core::api::JobRequest;
use proptest::prelude::*;

const BENCH_FILE: &[u8] = include_bytes!("../../../BENCH_throughput.json");
const QUICK_REQUEST: &[u8] = br#"{"api":1,"job":{"study":"quick"}}"#;

/// Bytes an inflation repeats.
const INFLATE: [u8; 9] = [b'9', b'0', b'-', b'e', b'[', b'{', b'"', b'a', b' '];

/// One mutation of `doc`. `a`, `b`, `c` pick positions; `len` and `byte`
/// shape an inflation.
fn mutate(doc: &[u8], kind: u8, (a, b, c): (u64, u64, u64), len: usize, byte: u8) -> Vec<u8> {
    let at = |x: u64| (x % (doc.len() as u64 + 1)) as usize;
    let mut out = doc.to_vec();
    match kind {
        // Truncate.
        0 => out.truncate(at(a)),
        // Splice a copy of one slice of the document in at another point.
        1 => {
            let (lo, hi) = (at(a).min(at(b)), at(a).max(at(b)));
            out.splice(at(c)..at(c), doc[lo..hi].iter().copied());
        }
        // Flip bits in one or two bytes.
        2 => {
            let n = doc.len();
            out[at(a) % n] ^= (b as u8) | 1;
            if c % 2 == 0 {
                out[at(c) % n] ^= (c >> 8) as u8 | 1;
            }
        }
        // Inflate: insert a long run of one byte.
        _ => {
            let pos = at(a);
            out.splice(pos..pos, std::iter::repeat_n(byte, len));
        }
    }
    out
}

fn positions() -> impl Strategy<Value = (u64, u64, u64)> {
    (any::<u64>(), any::<u64>(), any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_bench_files_load_or_fail_typed(
        kind in 0u8..4,
        pos in positions(),
        len in 1usize..65_536,
        byte in prop::sample::select(INFLATE.to_vec()),
    ) {
        let bytes = mutate(BENCH_FILE, kind, pos, len, byte);
        let path = std::env::temp_dir().join(format!("fx8_hostile_{}.json", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let loaded = throughput::load(path.to_str().unwrap());
        let _ = std::fs::remove_file(&path);
        match loaded {
            Ok(file) => {
                // A surviving file is still a valid one: it re-serializes
                // and loads back identically.
                let json = serde_json::to_string(&file).unwrap();
                prop_assert_eq!(serde_json::from_str::<throughput::BenchFile>(&json).unwrap(), file);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn mutated_job_requests_parse_or_fail_typed(
        kind in 0u8..4,
        pos in positions(),
        len in 1usize..65_536,
        byte in prop::sample::select(INFLATE.to_vec()),
    ) {
        let bytes = mutate(QUICK_REQUEST, kind, pos, len, byte);
        match JobRequest::from_json(&String::from_utf8_lossy(&bytes)) {
            // A request that parses must also validate (or be refused)
            // without panicking.
            Ok(req) => {
                let _ = req.validate();
            }
            Err(e) => prop_assert_eq!(e.code, fx8_core::api::codes::BAD_JSON),
        }
    }
}

#[test]
fn unmutated_inputs_are_valid() {
    let text = std::str::from_utf8(QUICK_REQUEST).unwrap();
    assert!(JobRequest::from_json(text).unwrap().validate().is_ok());
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    assert!(throughput::load(bench).is_ok());
}
