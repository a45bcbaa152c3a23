//! The GAP benchmark suite model (§8.3, Figure 11-b/c).
//!
//! The paper runs the FireSim-ported GAP kernels on a Kronecker graph
//! (graph500-style). We generate a synthetic power-law graph in CSR form and
//! derive each kernel's memory-reference trace from its actual traversal
//! structure: sequential offset-array reads, semi-random edge reads, and
//! random property-array reads whose footprint is what produces the TLB-miss
//! profile GAP is known for.

use hpmp_machine::MachineConfig;
use hpmp_memsim::{AccessKind, SplitMix64};
use hpmp_penglai::{OsError, TeeFlavor};
use hpmp_trace::TraceSink;

use crate::arena::{replay, TraceStep, UserArena};
use crate::fixture::TeeBench;

/// The six GAP kernels evaluated in Figure 11.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GapKernel {
    /// Betweenness centrality (most walk-intensive; worst case in paper).
    Bc,
    /// Breadth-first search.
    Bfs,
    /// Connected components.
    Cc,
    /// PageRank.
    Pr,
    /// Single-source shortest paths.
    Sssp,
    /// Triangle counting.
    Tc,
}

/// All kernels in the figure's order.
pub const GAP_KERNELS: [GapKernel; 6] = [
    GapKernel::Bc,
    GapKernel::Bfs,
    GapKernel::Cc,
    GapKernel::Pr,
    GapKernel::Sssp,
    GapKernel::Tc,
];

impl std::fmt::Display for GapKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GapKernel::Bc => "bc-kron",
            GapKernel::Bfs => "bfs-kron",
            GapKernel::Cc => "cc-kron",
            GapKernel::Pr => "pr-kron",
            GapKernel::Sssp => "sssp-kron",
            GapKernel::Tc => "tc-kron",
        })
    }
}

/// A synthetic Kronecker-flavoured graph in CSR layout.
#[derive(Clone, Debug)]
pub struct KronGraph {
    /// Number of vertices.
    pub vertices: u64,
    /// Edge targets, grouped by source (CSR `edges` array).
    pub edges: Vec<u64>,
    /// CSR row offsets (length `vertices + 1`).
    pub offsets: Vec<u64>,
}

impl KronGraph {
    /// Generates a graph with `2^scale` vertices and average degree
    /// `degree`, with the skewed degree distribution of Kronecker
    /// generators (a few hub vertices attract most edges).
    pub fn generate(scale: u32, degree: u64, seed: u64) -> KronGraph {
        let vertices = 1u64 << scale;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut adjacency: Vec<Vec<u64>> = vec![Vec::new(); vertices as usize];
        let total_edges = vertices * degree;
        for _ in 0..total_edges {
            // R-MAT-style recursive quadrant selection (a=0.57, b=c=0.19).
            let mut src = 0u64;
            let mut dst = 0u64;
            for bit in (0..scale).rev() {
                let r = rng.gen_f64();
                let (sb, db) = if r < 0.57 {
                    (0, 0)
                } else if r < 0.76 {
                    (0, 1)
                } else if r < 0.95 {
                    (1, 0)
                } else {
                    (1, 1)
                };
                src |= sb << bit;
                dst |= db << bit;
            }
            adjacency[src as usize].push(dst);
        }
        let mut offsets = Vec::with_capacity(vertices as usize + 1);
        let mut edges = Vec::with_capacity(total_edges as usize);
        offsets.push(0);
        for list in &adjacency {
            edges.extend_from_slice(list);
            offsets.push(edges.len() as u64);
        }
        KronGraph {
            vertices,
            edges,
            offsets,
        }
    }

    /// Total number of edges.
    fn edge_count(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Neighbours of `v`.
    pub fn neighbours(&self, v: u64) -> &[u64] {
        &self.edges[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

/// Bytes per property entry. The paper's graphs have 2^20 vertices; ours
/// are smaller for trace-replay speed, so property entries are strided to
/// give the property array the same *page footprint* (and therefore the
/// same TLB-miss behaviour) per random read as the full-size run.
const PROP_STRIDE: u64 = 256;

/// Byte layout of the graph inside the arena: `[offsets][edges][props]`.
#[derive(Clone, Copy, Debug)]
struct Layout {
    offsets_base: u64,
    edges_base: u64,
    props_base: u64,
}

fn layout(graph: &KronGraph) -> (Layout, u64) {
    let offsets_bytes = (graph.vertices + 1) * 8;
    let edges_bytes = graph.edge_count() * 8;
    let props_bytes = graph.vertices * PROP_STRIDE;
    let layout = Layout {
        offsets_base: 0,
        edges_base: offsets_bytes,
        props_base: offsets_bytes + edges_bytes,
    };
    (layout, offsets_bytes + edges_bytes + props_bytes)
}

/// Emits a breadth-first traversal trace: the frontier drives the visit
/// order (BFS/SSSP/CC really walk the graph this way, which gives bursts of
/// locality on hub regions followed by scattered fringe visits).
fn frontier_trace(graph: &KronGraph, compute: u64, prop_reads: u64, budget: u64) -> Vec<TraceStep> {
    let (l, _) = layout(graph);
    let mut trace = Vec::new();
    let mut visited = vec![false; graph.vertices as usize];
    let mut queue = std::collections::VecDeque::new();
    let mut edges_seen = 0u64;
    // Start from vertex 0 and restart on disconnected components.
    'outer: for root in 0..graph.vertices {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            trace.push(TraceStep {
                offset: l.offsets_base + v * 8,
                kind: AccessKind::Read,
                compute: 1,
            });
            for (i, &n) in graph.neighbours(v).iter().enumerate() {
                trace.push(TraceStep {
                    offset: l.edges_base + (graph.offsets[v as usize] + i as u64) * 8,
                    kind: AccessKind::Read,
                    compute,
                });
                for r in 0..prop_reads {
                    let target = if r == 0 { n } else { v };
                    trace.push(TraceStep {
                        offset: l.props_base + target * PROP_STRIDE,
                        kind: AccessKind::Read,
                        compute: 1,
                    });
                }
                if !visited[n as usize] {
                    visited[n as usize] = true;
                    queue.push_back(n);
                    // Discovery write (parent / distance / component id).
                    trace.push(TraceStep {
                        offset: l.props_base + n * PROP_STRIDE,
                        kind: AccessKind::Write,
                        compute: 1,
                    });
                }
                edges_seen += 1;
                if edges_seen >= budget {
                    break 'outer;
                }
            }
        }
    }
    trace
}

/// Emits the trace of one kernel over `graph`. `budget` caps the number of
/// edge visits so runtimes stay bounded. Traversal kernels (BFS, SSSP, CC)
/// use the frontier-driven order; the iterative kernels (PR, TC, BC's
/// passes) sweep vertices.
fn kernel_trace(graph: &KronGraph, kernel: GapKernel, budget: u64) -> Vec<TraceStep> {
    match kernel {
        GapKernel::Bfs => return frontier_trace(graph, 12, 1, budget),
        GapKernel::Cc => return frontier_trace(graph, 12, 1, budget),
        GapKernel::Sssp => return frontier_trace(graph, 18, 2, budget),
        _ => {}
    }
    let (l, _) = layout(graph);
    let mut trace = Vec::new();
    let mut visited = 0u64;
    // Per-edge behaviour differs by kernel: BC reads properties of both
    // endpoints across two passes (the most walk-intensive — the paper's
    // worst case), TC re-reads adjacency rows for intersections (compute
    // heavy, edge-array dominated), PR does per-edge float work.
    let (compute, prop_reads, prop_writes, passes) = match kernel {
        GapKernel::Bc => (10, 2, true, 2),
        GapKernel::Bfs => (12, 1, true, 1),
        GapKernel::Cc => (12, 1, true, 1),
        GapKernel::Pr => (26, 1, true, 1),
        GapKernel::Sssp => (18, 2, true, 1),
        GapKernel::Tc => (48, 1, false, 1),
    };
    'outer: for _pass in 0..passes {
        for v in 0..graph.vertices {
            // Read the offset entry (sequential, prefetch-friendly).
            trace.push(TraceStep {
                offset: l.offsets_base + v * 8,
                kind: AccessKind::Read,
                compute: 1,
            });
            for (i, &n) in graph.neighbours(v).iter().enumerate() {
                // Read the edge target (sequential within the row)…
                trace.push(TraceStep {
                    offset: l.edges_base + (graph.offsets[v as usize] + i as u64) * 8,
                    kind: AccessKind::Read,
                    compute,
                });
                // …then neighbour/source properties (random: the pain point).
                for r in 0..prop_reads {
                    // BC's second read models its backward-pass sigma/delta
                    // arrays: a second, differently-indexed random page.
                    let target = if r == 0 {
                        n
                    } else {
                        (n * 7 + v) % graph.vertices
                    };
                    trace.push(TraceStep {
                        offset: l.props_base + target * PROP_STRIDE,
                        kind: AccessKind::Read,
                        compute: 1,
                    });
                }
                if prop_writes {
                    trace.push(TraceStep {
                        offset: l.props_base + v * PROP_STRIDE,
                        kind: AccessKind::Write,
                        compute: 1,
                    });
                }
                visited += 1;
                if visited >= budget {
                    break 'outer;
                }
            }
        }
    }
    trace
}

/// Runs one GAP kernel under `flavor` on a machine built from `config` (or
/// a core kind), recording walk events into `sink`; returns the total
/// cycles and the machine's metrics snapshot.
///
/// # Errors
///
/// Propagates OS errors.
pub fn run_gap_with_sink<S: TraceSink>(
    flavor: TeeFlavor,
    config: impl Into<MachineConfig>,
    kernel: GapKernel,
    graph: &KronGraph,
    budget: u64,
    sink: S,
) -> Result<(u64, hpmp_trace::Snapshot), OsError> {
    let mut tee = TeeBench::boot_with_sink(flavor, config, sink);
    let (_, bytes) = layout(graph);
    let pages = bytes.div_ceil(hpmp_memsim::PAGE_SIZE) + 1;
    let arena = UserArena::create(&mut tee.os, &mut tee.machine, pages)?;
    let trace = kernel_trace(graph, kernel, budget);
    let cycles = replay(&mut tee.os, &mut tee.machine, &arena, trace)?;
    tee.machine.flush_sink();
    Ok((cycles, tee.machine.metrics_snapshot()))
}

/// A default graph for tests and benches: 2^14 vertices, degree 8 (scaled
/// down from the paper's 2^20; the 256-byte property stride keeps the
/// property array's page footprint — 8 MiB, past the 4 MiB L2-TLB reach —
/// so the TLB-miss profile of the random property reads matches the
/// full-size runs).
pub fn default_graph() -> KronGraph {
    KronGraph::generate(14, 8, 0x9a9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_memsim::CoreKind;
    use hpmp_trace::NullSink;

    #[test]
    fn graph_generation_is_consistent() {
        let g = KronGraph::generate(8, 4, 1);
        assert_eq!(g.vertices, 256);
        assert_eq!(g.edge_count(), 256 * 4);
        assert_eq!(*g.offsets.last().unwrap(), g.edge_count());
        // Deterministic for a fixed seed.
        let g2 = KronGraph::generate(8, 4, 1);
        assert_eq!(g.edges, g2.edges);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = KronGraph::generate(10, 8, 2);
        let mut degrees: Vec<usize> = (0..g.vertices).map(|v| g.neighbours(v).len()).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top = degrees
            .iter()
            .take(g.vertices as usize / 100)
            .sum::<usize>();
        // The top 1% of vertices should hold far more than 1% of edges.
        assert!(top as f64 > 0.05 * g.edge_count() as f64, "top1%={top}");
    }

    #[test]
    fn trace_touches_properties_randomly() {
        let g = KronGraph::generate(8, 4, 3);
        let trace = kernel_trace(&g, GapKernel::Pr, 500);
        assert!(!trace.is_empty());
        let (l, total) = layout(&g);
        assert!(trace.iter().all(|s| s.offset < total));
        assert!(trace.iter().any(|s| s.offset >= l.props_base));
    }

    #[test]
    fn bc_emits_more_work_than_bfs() {
        let g = KronGraph::generate(8, 4, 3);
        let bc = kernel_trace(&g, GapKernel::Bc, u64::MAX).len();
        let bfs = kernel_trace(&g, GapKernel::Bfs, u64::MAX).len();
        assert!(bc > bfs);
    }

    #[test]
    fn overhead_small_and_ordered() {
        // Small graph, small budget: fast smoke check of Figure 11's shape.
        let g = KronGraph::generate(10, 4, 5);
        let run = |flavor| {
            let (cycles, _) =
                run_gap_with_sink(flavor, CoreKind::Rocket, GapKernel::Pr, &g, 1500, NullSink)
                    .unwrap();
            cycles
        };
        let pmp = run(TeeFlavor::PenglaiPmp);
        let pmpt = run(TeeFlavor::PenglaiPmpt);
        let hpmp = run(TeeFlavor::PenglaiHpmp);
        let pmpt_over = pmpt as f64 / pmp as f64;
        let hpmp_over = hpmp as f64 / pmp as f64;
        assert!(pmpt_over > 1.0, "PMPT must cost more than PMP: {pmpt_over}");
        assert!(hpmp_over < pmpt_over, "HPMP must recover part of the gap");
        assert!(
            pmpt_over < 1.35,
            "GAP overhead stays small (TLB inlining): {pmpt_over}"
        );
    }
}
