//! The kernel library.
//!
//! Every kernel compiles to the simulator's operation-stream interface with
//! *real addresses*, so cache hits, cross-CE reuse, interleave conflicts
//! and page faults all emerge from the machine model. A uniform
//! parameterization captures the memory shapes of the codes the thesis
//! names:
//!
//! * a **shared panel** — a cache-resident region every iteration re-reads
//!   (the blocked-BLAS panels of the CSRD linear-algebra kernels — thesis ref. 5 — the
//!   coefficient tables of circuit simulation). Panel references are the
//!   cross-processor locality § 5.1 credits for Missrate's insensitivity
//!   to the number of active processors;
//! * **streaming lines** — per-iteration-unique rows/blocks (matrix rows,
//!   vector blocks) that miss on first touch and make concurrent code more
//!   data-intensive than serial code (§ 5.3's explanation for Missrate's
//!   strong dependence on `C_w`);
//! * **compute bursts** — register-to-register scalar/vector work
//!   (32-element vector operations live entirely in vector registers);
//! * an optional **dependence** — `advance`/`await` synchronization over
//!   the CCB for loops with iteration-carried recurrences;
//! * **per-iteration variance** — conditional branching makes iteration
//!   bodies differ, one of § 4.3's causes of stretched-out transitions.

use fx8_sim::addr::{PageId, VAddr, PAGE_BYTES};
use fx8_sim::stream::{CodeRegion, LoopBody, Op, SerialCode};
use fx8_sim::{Asid, CeId};
use serde::{Deserialize, Serialize};

/// Cache-line size assumed by address layout (matches `MachineConfig::fx8`).
pub const LINE_BYTES: u64 = 32;

/// Base of the code region within a job's address space.
const CODE_BASE: u64 = 0x0000_0000;
/// Base of the shared panel region.
const PANEL_BASE: u64 = 0x0100_0000;
/// Base of the streaming region.
const STREAM_BASE: u64 = 0x2000_0000;
/// Base of the serial hot data region.
const HOT_BASE: u64 = 0x0080_0000;

/// Parameters of a concurrent-loop kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopKernel {
    /// Human-readable kernel name.
    pub name: String,
    /// Loop iteration count (the DO-loop trip count).
    pub iters: u64,
    /// Lines in the shared, heavily-reused panel.
    pub panel_lines: u64,
    /// Panel references per iteration.
    pub panel_refs: u32,
    /// Per-iteration-unique streaming lines (loads).
    pub stream_lines: u32,
    /// Per-iteration-unique streaming lines (stores).
    pub store_lines: u32,
    /// Register-only instructions per iteration (includes vector ops).
    pub compute: u32,
    /// Code footprint in bytes (≤ 16 KB fits the CE icache).
    pub code_bytes: u64,
    /// Iteration-carried dependence: fraction of the body that must run in
    /// iteration order (None = fully independent).
    pub dependence: Option<f64>,
    /// Per-iteration body-size variance, ± fraction (conditional branching).
    pub variance: f64,
}

impl LoopKernel {
    /// Rough cycles per iteration for macro-level timing: compute plus hit
    /// references plus miss penalties on streaming lines.
    pub fn est_cycles_per_iter(&self) -> u64 {
        let refs = self.panel_refs as u64 + (self.stream_lines + self.store_lines) as u64;
        let miss_penalty = 15 * (self.stream_lines + self.store_lines) as u64;
        self.compute as u64 + refs + miss_penalty
    }

    /// Estimated cycles for the whole loop on `p` processors. Dependent
    /// loops pipeline: throughput is bounded by the serialized fraction of
    /// each iteration, whatever the processor count.
    pub fn est_cycles(&self, p: u64) -> u64 {
        let per = self.est_cycles_per_iter();
        let parallel = per.div_ceil(p.min(self.iters.max(1)).max(1));
        let pipeline_bound = match self.dependence {
            Some(f) => (per as f64 * f) as u64,
            None => 0,
        };
        self.iters * parallel.max(pipeline_bound).max(1)
    }

    /// The pages this loop touches (panel + streamed data + code).
    pub fn data_pages(&self, asid: Asid) -> Vec<PageId> {
        let mut pages = Vec::new();
        let panel_bytes = self.panel_lines * LINE_BYTES;
        push_region_pages(&mut pages, asid, PANEL_BASE, panel_bytes);
        let stream_bytes = self.iters * (self.stream_lines + self.store_lines) as u64 * LINE_BYTES;
        // Streaming working sets are capped: a real streaming loop keeps
        // only a sliding window resident; the drift model accounts for the
        // rest of its fault traffic.
        push_region_pages(
            &mut pages,
            asid,
            STREAM_BASE,
            stream_bytes.min(4 * 1024 * 1024),
        );
        push_region_pages(&mut pages, asid, CODE_BASE, self.code_bytes);
        pages
    }

    /// Instantiate the loop body for a job in address space `asid`.
    pub fn instantiate(&self, asid: Asid) -> Box<dyn LoopBody> {
        Box::new(KernelLoopBody {
            spec: self.clone(),
            asid,
            templates: std::collections::HashMap::new(),
        })
    }

    /// The code region of the body.
    pub fn code(&self, asid: Asid) -> CodeRegion {
        CodeRegion {
            base: VAddr::new(asid, CODE_BASE),
            footprint_bytes: self.code_bytes.max(64),
            bytes_per_instr: 4,
        }
    }
}

/// Parameters of a serial kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SerialKernel {
    /// Human-readable kernel name.
    pub name: String,
    /// Lines in the hot data set (scalar locals, symbol tables).
    pub hot_lines: u64,
    /// Hot references per block.
    pub hot_refs: u32,
    /// Streaming (cold) lines touched per block.
    pub stream_lines: u32,
    /// Store fraction of hot references (0..1).
    pub store_fraction: f64,
    /// Register-only instructions per block.
    pub compute: u32,
    /// Code footprint in bytes (serial development code is often larger
    /// than the 16 KB icache, unlike loop bodies).
    pub code_bytes: u64,
}

impl SerialKernel {
    /// Pages of the hot set plus code.
    pub fn data_pages(&self, asid: Asid) -> Vec<PageId> {
        let mut pages = Vec::new();
        push_region_pages(&mut pages, asid, HOT_BASE, self.hot_lines * LINE_BYTES);
        push_region_pages(&mut pages, asid, CODE_BASE, self.code_bytes);
        pages
    }

    /// Instantiate the stream for a job in address space `asid`.
    pub fn instantiate(&self, asid: Asid) -> Box<dyn SerialCode> {
        Box::new(KernelSerialCode {
            spec: self.clone(),
            asid,
            block: 0,
        })
    }

    /// The code region.
    pub fn code(&self, asid: Asid) -> CodeRegion {
        CodeRegion {
            base: VAddr::new(asid, CODE_BASE),
            footprint_bytes: self.code_bytes.max(64),
            bytes_per_instr: 4,
        }
    }
}

fn push_region_pages(pages: &mut Vec<PageId>, asid: Asid, base: u64, bytes: u64) {
    let first = base / PAGE_BYTES;
    let last = (base + bytes.max(1) - 1) / PAGE_BYTES;
    for p in first..=last {
        pages.push(VAddr::new(asid, p * PAGE_BYTES).page());
    }
}

/// Deterministic per-iteration hash, independent of execution order.
#[inline]
fn iter_hash(iter: u64, salt: u64) -> u64 {
    // SplitMix64 finalizer.
    let mut z = iter.wrapping_add(salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A decoded iteration body, cached by shape. After variance scaling, the
/// op sequence of an iteration is fully determined by the scaled
/// `(compute, panel_refs)` pair; only the streaming addresses (linear in
/// the iteration number) and the sync targets depend on `iter` itself, so
/// they are recorded as patch positions and rewritten at replay.
struct IterTemplate {
    /// The decoded op trace, with some other iteration's stream addresses
    /// and sync targets in the patched slots (always overwritten).
    ops: Vec<Op>,
    /// `(position, j)`: the Load/Store at `position` targets stream slot
    /// `j`, i.e. `stream_base(iter) + j * LINE_BYTES`.
    stream: Vec<(u32, u32)>,
    /// Positions holding `Op::AwaitSync(iter)`.
    awaits: Vec<u32>,
    /// Positions holding `Op::PostSync(iter + 1)`.
    posts: Vec<u32>,
}

/// Distinct body shapes cached per loop body before falling back to
/// re-decoding: the variance hash has at most 2001 classes, and real
/// kernels collapse to a few dozen `(compute, panel_refs)` pairs, so the
/// cap is rarely reached — it only bounds worst-case memory.
const TEMPLATE_CACHE_CAP: usize = 256;

/// A [`LoopBody`] realized from a [`LoopKernel`].
struct KernelLoopBody {
    spec: LoopKernel,
    asid: Asid,
    /// Decoded access-stream cache, keyed by scaled `(compute, panel_refs)`.
    templates: std::collections::HashMap<(u32, u32), IterTemplate>,
}

impl LoopBody for KernelLoopBody {
    fn code(&self) -> CodeRegion {
        self.spec.code(self.asid)
    }

    fn gen_iteration(&mut self, iter: u64, _ce: CeId, out: &mut Vec<Op>) {
        let s = &self.spec;
        let h = iter_hash(iter, 0x5eed);
        // Conditional branching: scale the body by ±variance.
        let scale = 1.0 + s.variance * (((h % 2001) as f64 / 1000.0) - 1.0);
        let compute = ((s.compute as f64) * scale).max(1.0) as u32;
        let panel_refs = ((s.panel_refs as f64) * scale).round() as u32;

        let n_stream = (s.stream_lines + s.store_lines) as u64;
        let stream_base = STREAM_BASE + iter * n_stream * LINE_BYTES;
        let start = out.len();

        // Fast path: replay the decoded trace and patch the
        // iteration-dependent slots. Byte-identical to re-decoding.
        if let Some(t) = self.templates.get(&(compute, panel_refs)) {
            out.extend_from_slice(&t.ops);
            for &(pos, j) in &t.stream {
                let a = VAddr::new(self.asid, stream_base + j as u64 * LINE_BYTES);
                out[start + pos as usize].patch_addr(a);
            }
            for &p in &t.awaits {
                out[start + p as usize] = Op::AwaitSync(iter);
            }
            for &p in &t.posts {
                out[start + p as usize] = Op::PostSync(iter + 1);
            }
            return;
        }

        // Decode path, recording the iteration-dependent positions.
        let dependence = s.dependence;
        let stream_lines = s.stream_lines as u64;
        let panel_lines = s.panel_lines.max(1);
        let asid = self.asid;
        let mut stream_rec: Vec<(u32, u32)> = Vec::new();
        let mut awaits: Vec<u32> = Vec::new();
        let mut posts: Vec<u32> = Vec::new();

        // Dependent section first: wait for the previous iteration.
        if let Some(frac) = dependence {
            let pre = ((compute as f64) * (1.0 - frac)) as u32;
            if pre > 0 {
                out.push(Op::Compute(pre));
            }
            awaits.push((out.len() - start) as u32);
            out.push(Op::AwaitSync(iter));
        }

        // The body walks its resident panel with streaming mini-bursts at
        // the thirds of the walk: a blocked kernel computes against the
        // panel and fetches the next row chunk as it crosses each block
        // boundary. Bursts pipeline on the memory bus (near-deterministic
        // duration, preserving the cluster's lockstep — the precondition
        // for the sharp 8-to-2 transition collapse of § 4.3) yet occur
        // often enough that captured windows of a streaming kernel see
        // its misses.
        let total_refs = panel_refs as u64 + n_stream;
        let burst = (compute as u64 / (total_refs + 1)).max(1) as u32;
        let panel_bytes = panel_lines * LINE_BYTES;
        let mut next_stream = 0u64;
        let mut emitted_compute = 0u32;
        let third = (panel_refs / 3).max(1);
        let per_burst = n_stream.div_ceil(3).max(1);
        let emit_stream_burst =
            |next_stream: &mut u64, out: &mut Vec<Op>, rec: &mut Vec<(u32, u32)>| {
                for _ in 0..per_burst {
                    if *next_stream >= n_stream {
                        break;
                    }
                    rec.push(((out.len() - start) as u32, *next_stream as u32));
                    let a = VAddr::new(asid, stream_base + *next_stream * LINE_BYTES);
                    if *next_stream < stream_lines {
                        out.push(Op::Load(a));
                    } else {
                        out.push(Op::Store(a));
                    }
                    *next_stream += 1;
                }
            };

        for r in 0..panel_refs {
            // Walk the panel with the same deterministic stride every
            // iteration: a vectorized body executes an identical reference
            // pattern each trip. The CEs' staggered CCB start times
            // de-conflict the banks.
            let line = (r as u64 * 7) % panel_lines;
            out.push(Op::Load(VAddr::new(
                asid,
                PANEL_BASE + (line * LINE_BYTES) % panel_bytes,
            )));
            if emitted_compute < compute {
                out.push(Op::Compute(burst));
                emitted_compute += burst;
            }
            if (r + 1) % third == 0 {
                emit_stream_burst(&mut next_stream, out, &mut stream_rec);
            }
        }
        while next_stream < n_stream {
            emit_stream_burst(&mut next_stream, out, &mut stream_rec);
        }
        if emitted_compute < compute {
            out.push(Op::Compute(compute - emitted_compute));
        }

        // Release the next iteration.
        if dependence.is_some() {
            posts.push((out.len() - start) as u32);
            out.push(Op::PostSync(iter + 1));
        }

        if self.templates.len() < TEMPLATE_CACHE_CAP {
            self.templates.insert(
                (compute, panel_refs),
                IterTemplate {
                    ops: out[start..].to_vec(),
                    stream: stream_rec,
                    awaits,
                    posts,
                },
            );
        }
    }
}

/// A [`SerialCode`] realized from a [`SerialKernel`].
struct KernelSerialCode {
    spec: SerialKernel,
    asid: Asid,
    block: u64,
}

impl SerialCode for KernelSerialCode {
    fn code(&self) -> CodeRegion {
        self.spec.code(self.asid)
    }

    fn gen_block(&mut self, _ce: CeId, out: &mut Vec<Op>) {
        let s = &self.spec;
        let h = iter_hash(self.block, 0xc0de);
        self.block += 1;
        let hot_bytes = s.hot_lines.max(1) * LINE_BYTES;
        let burst = (s.compute / (s.hot_refs + s.stream_lines + 1)).max(1);
        let mut emitted = 0u32;
        let store_every = if s.store_fraction > 0.0 {
            (1.0 / s.store_fraction).round().max(1.0) as u32
        } else {
            u32::MAX
        };
        for r in 0..s.hot_refs {
            let line = (h.wrapping_add(r as u64 * 13)) % s.hot_lines.max(1);
            let a = VAddr::new(self.asid, HOT_BASE + (line * LINE_BYTES) % hot_bytes);
            if r % store_every == store_every - 1 {
                out.push(Op::Store(a));
            } else {
                out.push(Op::Load(a));
            }
            if emitted < s.compute {
                out.push(Op::Compute(burst));
                emitted += burst;
            }
        }
        // Cold streaming references wander through a larger region.
        for l in 0..s.stream_lines {
            let line = iter_hash(self.block * 97 + l as u64, 0x0ff5e7) % 65_536;
            out.push(Op::Load(VAddr::new(
                self.asid,
                STREAM_BASE + line * LINE_BYTES,
            )));
            if emitted < s.compute {
                out.push(Op::Compute(burst));
                emitted += burst;
            }
        }
        if emitted < s.compute {
            out.push(Op::Compute(s.compute - emitted));
        }
    }
}

// ---------------------------------------------------------------------------
// Named kernels — parameter sets matching the codes the thesis names.
// ---------------------------------------------------------------------------

/// Blocked matrix multiply (the BLAS3 kernels of CSRD report 610): heavy
/// panel reuse, one streamed row pair per iteration, vector-register rich.
pub fn matmul(n: u64) -> LoopKernel {
    LoopKernel {
        name: format!("matmul-{n}"),
        iters: n,
        panel_lines: 1536, // ~48 KB panel: fits the 128 KB shared cache
        panel_refs: (n * 3).clamp(96, 768) as u32,
        stream_lines: (n / 64).clamp(1, 6) as u32,
        store_lines: (n / 128).clamp(1, 3) as u32,
        compute: (n * 5).clamp(160, 1280) as u32,
        code_bytes: 2 * 1024,
        dependence: None,
        variance: 0.02,
    }
}

/// Vector triad `a = b + s*c` over long vectors: streaming-dominated,
/// little reuse — the data-intensive extreme.
pub fn vector_triad(blocks: u64) -> LoopKernel {
    LoopKernel {
        name: format!("triad-{blocks}"),
        iters: blocks,
        panel_lines: 64,
        panel_refs: 4,
        stream_lines: 16, // two 32-element source blocks
        store_lines: 8,   // one destination block
        compute: 48,
        code_bytes: 512,
        dependence: None,
        variance: 0.01,
    }
}

/// SOR / five-point stencil row sweep (structural mechanics): neighbour
/// rows shared between adjacent iterations give moderate reuse.
pub fn sor_sweep(rows: u64) -> LoopKernel {
    LoopKernel {
        name: format!("sor-{rows}"),
        iters: rows,
        panel_lines: 2048, // neighbour rows + coefficient tables stay cached
        panel_refs: 384,
        stream_lines: 2, // the leading new row chunk
        store_lines: 1,  // updated row chunk
        compute: 640,
        code_bytes: 1024,
        dependence: None,
        variance: 0.02,
    }
}

/// First-order linear recurrence (tridiagonal-style solve): iteration `i`
/// needs `x(i-1)` — a fully dependent loop, mostly CCB waiting.
pub fn recurrence(n: u64) -> LoopKernel {
    LoopKernel {
        name: format!("recurrence-{n}"),
        iters: n,
        panel_lines: 128,
        panel_refs: 24,
        stream_lines: 2,
        store_lines: 1,
        compute: 40,
        code_bytes: 512,
        dependence: Some(0.7),
        variance: 0.02,
    }
}

/// Dot-product style reduction: register accumulation, pure streaming
/// loads, no stores.
pub fn reduction(blocks: u64) -> LoopKernel {
    LoopKernel {
        name: format!("reduction-{blocks}"),
        iters: blocks,
        panel_lines: 32,
        panel_refs: 2,
        stream_lines: 2,
        store_lines: 0,
        compute: 128,
        code_bytes: 256,
        dependence: None,
        variance: 0.01,
    }
}

/// LU panel update (the "assembly-level kernels for linear system
/// solving"): panel reuse with a strided streamed update.
pub fn lu_panel(n: u64) -> LoopKernel {
    LoopKernel {
        name: format!("lu-panel-{n}"),
        iters: n,
        panel_lines: 1024,
        panel_refs: (n * 2).clamp(96, 576) as u32,
        stream_lines: (n / 128).clamp(1, 3) as u32,
        store_lines: (n / 128).clamp(1, 3) as u32,
        compute: (n * 3).clamp(160, 960) as u32,
        code_bytes: 3 * 1024,
        dependence: None, // pivot selection is handled in the serial glue
        variance: 0.03,
    }
}

/// A short boundary-condition loop: real FORTRAN is full of DO loops with
/// tiny trip counts (edge rows, per-group setup) that engage only as many
/// CEs as they have iterations. These produce the genuine 2..7-active
/// records of Table 2's middle columns and populate the low `P_c` bins of
/// the Chapter 5 analysis.
pub fn boundary_loop(trips: u64) -> LoopKernel {
    LoopKernel {
        name: format!("boundary-{trips}"),
        iters: trips.clamp(2, 7),
        panel_lines: 256,
        panel_refs: 48,
        stream_lines: 1,
        store_lines: 1,
        compute: 128,
        code_bytes: 512,
        dependence: None,
        variance: 0.02,
    }
}

/// A coarse-grain parallel region: the domain decomposed into a handful
/// of big chunks (quadrant solvers, per-group analyses), each a long
/// independent piece of work. Trip counts below the cluster width engage
/// only that many CEs for a long stretch — the sustained partial
/// concurrency behind the populated middle `P_c` bins.
pub fn chunked_region(chunks: u64) -> LoopKernel {
    LoopKernel {
        name: format!("chunked-{chunks}"),
        iters: chunks.clamp(2, 7),
        panel_lines: 1024,
        panel_refs: 8192,
        stream_lines: 56,
        store_lines: 16,
        compute: 16384,
        code_bytes: 4 * 1024,
        dependence: None,
        variance: 0.05,
    }
}

/// A fine-grain parallel loop nest: short trip counts cycled rapidly with
/// scalar glue, so dispatch ramps and drains occupy a large share of the
/// execution. Sampled intervals of such code mix full-width, transition
/// and serial records — ordinary missrates at depressed `P_c`, which is
/// what keeps Missrate flat against Mean Concurrency Level (§ 5.1).
pub fn fine_grain_loop(n: u64) -> LoopKernel {
    LoopKernel {
        name: format!("fine-grain-{n}"),
        iters: 10 + n % 12,
        panel_lines: 1024,
        panel_refs: 384,
        stream_lines: 2,
        store_lines: 1,
        compute: 640,
        code_bytes: 1024,
        dependence: None,
        variance: 0.02,
    }
}

/// Light interactive parallel work: a developer testing a parallelized
/// routine from the terminal — panel-resident, barely any streaming.
/// Generates concurrency with very low cache traffic, the low-miss side
/// of the workload's mid-`C_w` intervals.
pub fn interactive_kernel(n: u64) -> LoopKernel {
    LoopKernel {
        name: format!("interactive-{n}"),
        iters: n,
        panel_lines: 512,
        panel_refs: 256,
        stream_lines: 1,
        store_lines: 0,
        compute: 768,
        code_bytes: 1024,
        dependence: None,
        variance: 0.02,
    }
}

/// Scalar development work (editing, compiling, linking): big code
/// footprint (> 16 KB icache), small hot data, low intensity.
pub fn scalar_serial() -> SerialKernel {
    SerialKernel {
        name: "scalar-serial".into(),
        hot_lines: 2048, // 64 KB hot set
        hot_refs: 12,
        stream_lines: 0,
        store_fraction: 0.25,
        compute: 64,
        code_bytes: 48 * 1024,
    }
}

/// Serial numeric setup (mesh generation, input parsing): sequential
/// touches of large arrays — fault- and miss-heavier serial work.
pub fn data_prep() -> SerialKernel {
    SerialKernel {
        name: "data-prep".into(),
        hot_lines: 512,
        hot_refs: 8,
        stream_lines: 4,
        store_fraction: 0.4,
        compute: 48,
        code_bytes: 8 * 1024,
    }
}

/// Glue scalar code between loop nests (loop setup, norm checks).
pub fn glue_serial() -> SerialKernel {
    SerialKernel {
        name: "glue-serial".into(),
        hot_lines: 256,
        hot_refs: 6,
        stream_lines: 0,
        store_fraction: 0.2,
        compute: 56,
        code_bytes: 4 * 1024,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_iterations_reference_shared_panel_and_unique_streams() {
        let k = sor_sweep(100);
        let mut body = k.instantiate(1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        body.gen_iteration(3, 0, &mut a);
        body.gen_iteration(4, 1, &mut b);
        let loads = |ops: &[Op]| -> Vec<u64> {
            ops.iter()
                .filter_map(|op| match op {
                    Op::Load(x) => Some(x.offset()),
                    _ => None,
                })
                .collect()
        };
        let (la, lb) = (loads(&a), loads(&b));
        // Panel loads overlap across iterations (shared lines)...
        let panel = |v: &[u64]| v.iter().filter(|&&x| x < STREAM_BASE).count();
        assert!(panel(&la) > 0 && panel(&lb) > 0);
        // ...streaming loads are disjoint.
        let stream = |v: &[u64]| -> std::collections::BTreeSet<u64> {
            v.iter().copied().filter(|&x| x >= STREAM_BASE).collect()
        };
        assert!(
            stream(&la).is_disjoint(&stream(&lb)),
            "streams must be per-iteration"
        );
    }

    #[test]
    fn iteration_generation_is_deterministic_and_order_free() {
        let k = matmul(64);
        let mut b1 = k.instantiate(1);
        let mut b2 = k.instantiate(1);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        // Generate in different orders; iteration 5 must be identical.
        b1.gen_iteration(9, 0, &mut Vec::new());
        b1.gen_iteration(5, 0, &mut x);
        b2.gen_iteration(5, 3, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn variance_changes_iteration_sizes() {
        let k = sor_sweep(1000);
        let mut body = k.instantiate(1);
        let mut sizes = std::collections::BTreeSet::new();
        for i in 0..50 {
            let mut ops = Vec::new();
            body.gen_iteration(i, 0, &mut ops);
            let cycles: u64 = ops
                .iter()
                .map(|op| match op {
                    Op::Compute(c) => *c as u64,
                    _ => 1,
                })
                .sum();
            sizes.insert(cycles);
        }
        assert!(sizes.len() > 10, "bodies should vary: {sizes:?}");
    }

    #[test]
    fn dependent_kernel_emits_sync_pairs() {
        let k = recurrence(50);
        let mut body = k.instantiate(2);
        let mut ops = Vec::new();
        body.gen_iteration(7, 0, &mut ops);
        assert!(ops.contains(&Op::AwaitSync(7)));
        assert!(ops.contains(&Op::PostSync(8)));
        let await_pos = ops
            .iter()
            .position(|o| matches!(o, Op::AwaitSync(_)))
            .unwrap();
        let post_pos = ops
            .iter()
            .position(|o| matches!(o, Op::PostSync(_)))
            .unwrap();
        assert!(await_pos < post_pos, "await must precede post");
    }

    #[test]
    fn independent_kernels_emit_no_sync() {
        let k = vector_triad(100);
        let mut body = k.instantiate(1);
        let mut ops = Vec::new();
        body.gen_iteration(0, 0, &mut ops);
        assert!(!ops
            .iter()
            .any(|o| matches!(o, Op::AwaitSync(_) | Op::PostSync(_))));
    }

    #[test]
    fn serial_kernel_revisits_hot_set() {
        let k = scalar_serial();
        let mut code = k.instantiate(1);
        let mut seen = std::collections::HashMap::new();
        for _ in 0..200 {
            let mut ops = Vec::new();
            code.gen_block(0, &mut ops);
            for op in ops {
                if let Op::Load(a) | Op::Store(a) = op {
                    if a.offset() < STREAM_BASE {
                        *seen.entry(a.offset() / LINE_BYTES).or_insert(0u32) += 1;
                    }
                }
            }
        }
        assert!(
            seen.values().any(|&c| c > 1),
            "hot lines must be revisited across blocks"
        );
        assert!(seen.len() <= k.hot_lines as usize);
    }

    #[test]
    fn serial_kernel_mixes_loads_and_stores() {
        let k = data_prep();
        let mut code = k.instantiate(1);
        let mut ops = Vec::new();
        for _ in 0..20 {
            code.gen_block(0, &mut ops);
        }
        assert!(ops.iter().any(|o| matches!(o, Op::Store(_))));
        assert!(ops.iter().any(|o| matches!(o, Op::Load(_))));
    }

    #[test]
    fn estimates_are_positive_and_scale_with_processors() {
        let k = matmul(256);
        assert!(k.est_cycles_per_iter() > 0);
        assert!(k.est_cycles(8) < k.est_cycles(1));
        assert_eq!(k.est_cycles(1), k.iters * k.est_cycles_per_iter());
    }

    #[test]
    fn data_pages_cover_panel_code_and_stream() {
        let k = vector_triad(64);
        let pages = k.data_pages(3);
        assert!(!pages.is_empty());
        // All pages belong to ASID 3.
        assert!(pages.iter().all(|p| p.asid() == 3));
        // Streamed region pages grow with iteration count.
        let more = vector_triad(640).data_pages(3);
        assert!(more.len() > pages.len());
    }

    #[test]
    fn code_regions_fit_declared_footprints() {
        let k = sor_sweep(10);
        let r = k.code(1);
        assert_eq!(r.footprint_bytes, 1024);
        assert_eq!(r.base.asid(), 1);
        let s = scalar_serial();
        assert!(
            s.code(1).footprint_bytes > 16 * 1024,
            "development code exceeds the icache"
        );
    }

    #[test]
    fn iter_hash_is_stable() {
        assert_eq!(iter_hash(42, 1), iter_hash(42, 1));
        assert_ne!(iter_hash(42, 1), iter_hash(43, 1));
        assert_ne!(iter_hash(42, 1), iter_hash(42, 2));
    }
}
