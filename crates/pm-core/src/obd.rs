//! The Outer-Boundary Detection primitive (OBD, Section 5 of the paper).
//!
//! OBD removes the known-outer-boundary assumption of Algorithm DLE: starting
//! from a connected, contracted configuration, every particle learns which of
//! its incident empty points lie on the outer face, in `O(L_out + D)` rounds
//! (Theorem 41), without any particle movement.
//!
//! The primitive works on the virtual-node rings of the global boundaries
//! (Section 5.1): every boundary point simulates one v-node per local
//! boundary, and the v-nodes of one global boundary form a ring. On each
//! ring, *segments* of consecutive v-nodes compete: a segment whose
//! `(length, label)` is lexicographically smaller than its clockwise
//! successor's wins, forces the successor to disband, and absorbs its
//! v-nodes (Sections 5.2–5.3). Comparisons are pipelined, so a comparison
//! initiated by a segment `s` costs `O(|s|)` rounds (Lemma 31) and a boundary
//! of length `L` stabilizes in `O(L)` rounds (Lemma 35). A stable boundary is
//! covered by 1, 2, 3 or 6 segments with equal labels (Observation 33 /
//! Theorem 36); summing the boundary counts then tells whether the boundary
//! is the outer one (sum `+6`) or an inner one (sum `−6`, Observation 4).
//! Finally, an *outer token* walks the outer boundary and the result is
//! flooded to all particles (Section 5.4).
//!
//! ## Fidelity note
//!
//! Segments are simulated explicitly; the token trains inside one comparison
//! are charged their pipelined round cost (`C_CMP · |initiator|`, the
//! `(2 k_c + 5) l` bound of Lemma 35) through a discrete-event timeline
//! instead of being forwarded hop by hop. The winner rule (smaller segment
//! wins), the stable configurations, the ±6 decision rule, the outer-token
//! walk and the flooding are all implemented as in the paper and validated
//! against the geometric ground truth in the tests.
//!
//! Merges take effect in order of their charged completion round; when two
//! complete in the same round, the one won by the segment with the lower id
//! (the ring index of its tail v-node) goes first. The simulator's own cost
//! on a ring of `L` v-nodes is `O(L log L)` events: a merge re-evaluates
//! only the winner's and its predecessor's next merge, so at most `3L`
//! candidate merges pass through a binary heap, each after one in-place
//! label comparison.

use pm_grid::{
    boundary_rings_with_analysis, BoundaryCount, BoundaryKind, BoundaryRing, Point, Shape,
};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Round-cost constant per unit of comparison work (the paper's `k_c`
/// appears as `2 k_c + 5` in Lemma 35; we fold it into one constant).
pub const CMP_COST: u64 = 10;
/// Round-cost constant per v-node absorbed by the winning segment.
pub const ABSORB_COST: u64 = 1;
/// Round-cost constant per v-node for the stable-boundary check and segment
/// sum verification (Section 5.4).
pub const STABLE_CHECK_COST: u64 = 4;

/// How the round cost of one segment comparison is charged.
///
/// The paper's contribution in Section 5 is the *pipelined* comparison
/// (Lemma 31): a comparison initiated by a segment `s` costs `O(|s|)` rounds
/// even while the compared segments keep changing. Previous boundary-election
/// algorithms (\[3\], \[24\]) compared two segments element by element with the
/// segments frozen, paying `O(|s| · |s1|)` rounds per comparison — the
/// `Sequential` model below — which is what makes them quadratic overall.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompetitionCostModel {
    /// The paper's pipelined comparisons: `CMP_COST · |initiator|` rounds.
    Pipelined,
    /// Unpipelined, frozen-segment comparisons: `CMP_COST · |s| · |s1|`
    /// rounds (the Bazzi–Briones-style baseline).
    Sequential,
}

impl CompetitionCostModel {
    fn comparison_rounds(self, initiator_len: usize, successor_len: usize) -> u64 {
        match self {
            CompetitionCostModel::Pipelined => CMP_COST * initiator_len as u64,
            CompetitionCostModel::Sequential => {
                CMP_COST * initiator_len as u64 * successor_len.max(1) as u64
            }
        }
    }
}

/// A live segment during the competition. A segment keeps the ring index of
/// the v-node it started as (its tail) for its whole life, so that index is
/// its id, and it covers the `len` consecutive v-nodes clockwise from it.
#[derive(Clone, Copy, Debug)]
struct Segment {
    len: usize,
    /// Discrete-event time at which this segment is ready for its next
    /// expansion attempt.
    ready_at: u64,
    /// Id of the clockwise successor among the live segments.
    next: usize,
    /// Id of the counter-clockwise predecessor among the live segments.
    prev: usize,
    /// Bumped whenever the segment's pending merge changes or it dies, so
    /// heap entries carrying an older stamp are stale.
    stamp: u32,
}

/// Whether the segment of `a_len` v-nodes starting at ring index `a` has a
/// smaller `(length, label)` key than the one of `b_len` starting at `b`.
/// Labels are the boundary counts read clockwise, compared in place.
fn key_less(counts: &[BoundaryCount], a: usize, a_len: usize, b: usize, b_len: usize) -> bool {
    if a_len != b_len {
        return a_len < b_len;
    }
    let label = |s: usize| counts[s..].iter().chain(&counts[..s]).take(a_len);
    label(a).lt(label(b))
}

/// The decision OBD reached for one global boundary.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryDecision {
    /// Which boundary this is, per the geometric analysis (used only for
    /// reporting; the algorithm does not know it).
    pub kind: BoundaryKind,
    /// Number of v-nodes on the boundary's ring.
    pub ring_len: usize,
    /// The boundary-count sum computed by the winning segments.
    pub count_sum: i64,
    /// Whether the algorithm declared this the outer boundary.
    pub declared_outer: bool,
    /// Number of equal segments covering the ring when it stabilized
    /// (1, 2, 3 or 6 — Observation 33).
    pub stable_segments: usize,
    /// Discrete-event round at which the ring stabilized.
    pub stable_round: u64,
}

/// The result of running the OBD primitive.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObdOutcome {
    /// Total rounds: competition on the outer boundary, stability check,
    /// outer-token walk, and flooding.
    pub rounds: u64,
    /// The per-boundary decisions.
    pub decisions: Vec<BoundaryDecision>,
    /// For every particle point, the computed `outer[0..5]` flags: entry `i`
    /// is `true` iff the neighbour in clockwise direction `i` is an empty
    /// point of the outer face.
    pub outer_flags: HashMap<Point, [bool; 6]>,
    /// Rounds spent in each part, for reporting: `(competition,
    /// stability check, outer walk, flooding)`.
    pub round_breakdown: (u64, u64, u64, u64),
}

impl ObdOutcome {
    /// Whether exactly one boundary was declared outer.
    pub fn unique_outer(&self) -> bool {
        self.decisions.iter().filter(|d| d.declared_outer).count() == 1
    }
}

/// Simulator of the OBD primitive on an initial (connected, contracted)
/// configuration given by a shape.
#[derive(Clone, Copy, Debug)]
pub struct ObdSimulator<'a> {
    shape: &'a Shape,
}

impl<'a> ObdSimulator<'a> {
    /// Creates the simulator for the given initial shape.
    pub fn new(shape: &'a Shape) -> ObdSimulator<'a> {
        ObdSimulator { shape }
    }

    /// Runs the primitive and returns the decisions, the per-particle outer
    /// flags and the round counts.
    pub fn run(&self) -> ObdOutcome {
        self.run_with_cost_model(CompetitionCostModel::Pipelined)
    }

    /// Runs the primitive with an explicit comparison cost model. The
    /// [`CompetitionCostModel::Sequential`] variant reproduces the behaviour
    /// of the unpipelined boundary-election baselines.
    pub fn run_with_cost_model(&self, cost_model: CompetitionCostModel) -> ObdOutcome {
        let analysis = self.shape.analyze();
        let rings = boundary_rings_with_analysis(self.shape, &analysis);

        let mut decisions = Vec::with_capacity(rings.len());
        let mut outer_flags: HashMap<Point, [bool; 6]> = HashMap::new();
        for p in self.shape.iter() {
            outer_flags.insert(p, [false; 6]);
        }

        let mut outer_walk_rounds = 0u64;
        let mut competition_rounds = 0u64;
        let mut stability_rounds = 0u64;

        for ring in &rings {
            let decision = Self::compete_on_ring(ring, cost_model);
            competition_rounds = competition_rounds.max(decision.stable_round);
            // Stability check: each surviving segment compares itself with
            // the previous 6/|sum| segments (all of the same length), at the
            // pipelined cost per v-node.
            let seg_len = ring
                .len()
                .checked_div(decision.stable_segments)
                .unwrap_or(ring.len());
            stability_rounds = stability_rounds
                .max(STABLE_CHECK_COST * (seg_len as u64) * (decision.stable_segments as u64 + 1));
            if decision.declared_outer {
                // The outer token walks the whole boundary before the
                // termination announcement starts.
                outer_walk_rounds = outer_walk_rounds.max(ring.len() as u64);
                for v in ring.vnodes() {
                    let flags = outer_flags
                        .get_mut(&v.point)
                        .expect("v-node points are shape points");
                    for dir in v.local_boundary.edges() {
                        flags[dir.index()] = true;
                    }
                }
            }
            decisions.push(decision);
        }

        // Flooding: the announcement starts from the outer-boundary particles
        // and reaches every particle along shape edges.
        let flooding_rounds = self.flooding_rounds(&analysis);

        let rounds = competition_rounds + stability_rounds + outer_walk_rounds + flooding_rounds;
        ObdOutcome {
            rounds,
            decisions,
            outer_flags,
            round_breakdown: (
                competition_rounds,
                stability_rounds,
                outer_walk_rounds,
                flooding_rounds,
            ),
        }
    }

    /// Runs the segment competition of Section 5.3 on one ring and returns
    /// the decision for that boundary.
    ///
    /// Initially every v-node is a segment of length one, ready at time
    /// zero. A segment strictly smaller than its clockwise successor beats
    /// and absorbs it. The discrete-event timeline charges each merge
    /// `CMP_COST · |winner|` (pipelined comparison, Lemma 31) plus
    /// `ABSORB_COST · |loser|` for the loser's v-nodes to defect and be
    /// re-absorbed; merges on disjoint parts of the ring overlap in time,
    /// which the `max` of ready times captures. Each live segment's pending
    /// merge sits in a min-heap keyed `(done, id)`; a merge changes only
    /// the pending merges of the winner and its predecessor.
    fn compete_on_ring(ring: &BoundaryRing, cost_model: CompetitionCostModel) -> BoundaryDecision {
        let counts = ring.counts();
        let n = counts.len();
        let mut segments: Vec<Segment> = (0..n)
            .map(|i| Segment {
                len: 1,
                ready_at: 0,
                next: (i + 1) % n,
                prev: (i + n - 1) % n,
                stamp: 0,
            })
            .collect();
        // The merge segment `id` would make with its successor, if it is
        // strictly smaller: `(done, id, stamp)`.
        let pending = |segments: &[Segment], id: usize| {
            let s = segments[id];
            let s1 = segments[s.next];
            (s.next != id && key_less(&counts, id, s.len, s.next, s1.len)).then(|| {
                let done = s.ready_at.max(s1.ready_at)
                    + cost_model.comparison_rounds(s.len, s1.len)
                    + ABSORB_COST * s1.len as u64;
                Reverse((done, id, s.stamp))
            })
        };
        let mut heap: BinaryHeap<_> = (0..n).filter_map(|id| pending(&segments, id)).collect();

        let mut live = n;
        let mut stable_round = 0u64;
        // An empty heap means no segment is strictly smaller than its
        // successor: on a ring all segments are equal — the boundary is
        // stable.
        while let Some(Reverse((done, id, stamp))) = heap.pop() {
            if segments[id].stamp != stamp {
                continue;
            }
            let loser = segments[id].next;
            let Segment { len, next, .. } = segments[loser];
            segments[loser].stamp += 1;
            segments[next].prev = id;
            let winner = &mut segments[id];
            winner.len += len;
            winner.ready_at = done;
            winner.next = next;
            live -= 1;
            stable_round = stable_round.max(done);
            for s in [id, segments[id].prev] {
                segments[s].stamp += 1;
                heap.extend(pending(&segments, s));
            }
        }

        let count_sum: i64 = counts.iter().map(|c| *c as i64).sum();
        // The algorithm's decision: a boundary is the outer one iff the total
        // count sum is positive (+6 on stable multi-point boundaries, +4 for
        // the degenerate single-particle system).
        let declared_outer = count_sum > 0;
        BoundaryDecision {
            kind: ring.kind(),
            ring_len: ring.len(),
            count_sum,
            declared_outer,
            stable_segments: live,
            stable_round,
        }
    }

    /// Rounds needed to flood the termination announcement from the outer
    /// boundary to every particle (at most the shape's diameter).
    fn flooding_rounds(&self, analysis: &pm_grid::ShapeAnalysis) -> u64 {
        if analysis.outer_boundary().is_empty() {
            return 0;
        }
        // Multi-source BFS over the dense index: the flood depth is the
        // largest distance from the nearest outer-boundary point.
        let index = analysis.index().expect("non-empty shape has an index");
        let rect = *index.rect();
        let mut visited = vec![false; rect.cells()];
        let mut frontier: Vec<Point> = Vec::with_capacity(analysis.outer_boundary().len());
        for s in analysis.outer_boundary() {
            visited[rect.cell(*s).expect("shape point is in bounds")] = true;
            frontier.push(*s);
        }
        let mut next: Vec<Point> = Vec::new();
        let mut depth = 0u64;
        loop {
            for p in frontier.drain(..) {
                for n in p.neighbors() {
                    if let Some(cell) = rect.cell(n) {
                        if !visited[cell] && index.contains_cell(cell) {
                            visited[cell] = true;
                            next.push(n);
                        }
                    }
                }
            }
            if next.is_empty() {
                return depth;
            }
            depth += 1;
            std::mem::swap(&mut frontier, &mut next);
        }
    }

    /// The ground-truth outer flags from the geometric analysis, for
    /// verification in tests and experiments.
    pub fn ground_truth_flags(&self) -> HashMap<Point, [bool; 6]> {
        let analysis = self.shape.analyze();
        let mut flags = HashMap::new();
        for p in self.shape.iter() {
            let mut f = [false; 6];
            for (i, d) in pm_grid::DIRECTIONS.iter().enumerate() {
                let n = p.neighbor(*d);
                f[i] = !self.shape.contains(n) && analysis.is_outer_face_point(n);
            }
            flags.insert(p, f);
        }
        flags
    }
}

/// Convenience helper: runs OBD on a shape and returns the outcome.
pub fn run_obd(shape: &Shape) -> ObdOutcome {
    ObdSimulator::new(shape).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_grid::builder::{
        annulus, comb, dumbbell, hexagon, line, parallelogram, spiral, swiss_cheese,
    };
    use pm_grid::random::{
        caterpillar, k_hole_hexagon, random_blob, random_holey_hexagon,
        random_simply_connected_blob,
    };
    use pm_grid::Metric;

    /// The competition as a scan: every merge looks through all segments
    /// for the earliest-finishing one (lowest position on ties), removes the
    /// loser and copies its label into the winner. `O(L²)`; kept as the
    /// reference the event queue must reproduce exactly.
    fn compete_by_scan(ring: &BoundaryRing, cost_model: CompetitionCostModel) -> BoundaryDecision {
        struct ScanSegment {
            label: Vec<BoundaryCount>,
            ready_at: u64,
        }
        let counts = ring.counts();
        let mut segments: Vec<ScanSegment> = counts
            .iter()
            .map(|c| ScanSegment {
                label: vec![*c],
                ready_at: 0,
            })
            .collect();
        fn key(s: &ScanSegment) -> (usize, &[BoundaryCount]) {
            (s.label.len(), &s.label)
        }
        let mut stable_round = 0u64;
        while segments.len() > 1 {
            let mut best: Option<(usize, u64)> = None;
            for i in 0..segments.len() {
                let (s, s1) = (&segments[i], &segments[(i + 1) % segments.len()]);
                if key(s) < key(s1) {
                    let done = s.ready_at.max(s1.ready_at)
                        + cost_model.comparison_rounds(s.label.len(), s1.label.len())
                        + ABSORB_COST * s1.label.len() as u64;
                    if best.is_none_or(|(_, t)| done < t) {
                        best = Some((i, done));
                    }
                }
            }
            let Some((i, done)) = best else { break };
            let j = (i + 1) % segments.len();
            let loser = segments.remove(j);
            let winner = &mut segments[if j < i { i - 1 } else { i }];
            winner.label.extend(loser.label);
            winner.ready_at = done;
            stable_round = stable_round.max(done);
        }
        let count_sum: i64 = counts.iter().map(|c| *c as i64).sum();
        BoundaryDecision {
            kind: ring.kind(),
            ring_len: ring.len(),
            count_sum,
            declared_outer: count_sum > 0,
            stable_segments: segments.len(),
            stable_round,
        }
    }

    #[test]
    fn event_queue_competition_matches_the_scan() {
        let mut shapes = vec![
            // One instance of every corpus generator.
            line(12),
            hexagon(5),
            parallelogram(6, 3),
            annulus(6, 2),
            swiss_cheese(6, 3),
            comb(12, 4),
            spiral(40),
            dumbbell(3, 5),
            caterpillar(30, 5, 1),
            random_blob(120, 1),
            random_simply_connected_blob(120, 1),
            random_holey_hexagon(6, 0.1, 1),
            k_hole_hexagon(6, 3, 1),
            // The single v-node ring and the symmetric tie case.
            line(1),
            hexagon(3),
            // The benchmark's election shapes.
            annulus(66, 33),
            caterpillar(1000, 8, 7),
        ];
        for seed in 0..40 {
            shapes.push(random_blob(150, seed));
            shapes.push(caterpillar(40, 6, seed));
            shapes.push(random_holey_hexagon(6, 0.08, seed));
            shapes.push(random_simply_connected_blob(150, seed));
        }
        for (index, shape) in shapes.iter().enumerate() {
            for ring in &boundary_rings_with_analysis(shape, &shape.analyze()) {
                for model in [
                    CompetitionCostModel::Pipelined,
                    CompetitionCostModel::Sequential,
                ] {
                    assert_eq!(
                        ObdSimulator::compete_on_ring(ring, model),
                        compete_by_scan(ring, model),
                        "{model:?} competition differs on a {:?} ring of {} v-nodes \
                         (shape {index}, {} points)",
                        ring.kind(),
                        ring.len(),
                        shape.len()
                    );
                }
            }
        }
    }

    fn check_flags_match_ground_truth(shape: &Shape) -> ObdOutcome {
        let sim = ObdSimulator::new(shape);
        let outcome = sim.run();
        let truth = sim.ground_truth_flags();
        assert!(
            outcome.unique_outer(),
            "exactly one boundary must be declared outer"
        );
        for (p, expected) in truth {
            assert_eq!(
                outcome.outer_flags.get(&p),
                Some(&expected),
                "outer flags differ at {p}"
            );
        }
        outcome
    }

    #[test]
    fn simple_shapes_identify_outer_boundary() {
        for shape in [hexagon(3), line(10), parallelogram(5, 4)] {
            let outcome = check_flags_match_ground_truth(&shape);
            assert_eq!(outcome.decisions.len(), 1);
            assert!(outcome.decisions[0].declared_outer);
            assert_eq!(outcome.decisions[0].count_sum, 6);
        }
    }

    #[test]
    fn holey_shapes_distinguish_inner_boundaries() {
        for shape in [annulus(4, 1), annulus(5, 2), swiss_cheese(6, 3)] {
            let outcome = check_flags_match_ground_truth(&shape);
            assert!(outcome.decisions.len() >= 2);
            for d in &outcome.decisions {
                match d.kind {
                    BoundaryKind::Outer => {
                        assert!(d.declared_outer);
                        assert_eq!(d.count_sum, 6);
                    }
                    BoundaryKind::Inner(_) => {
                        assert!(!d.declared_outer);
                        assert_eq!(d.count_sum, -6);
                    }
                }
            }
        }
    }

    #[test]
    fn stable_segment_counts_follow_observation_33() {
        for shape in [hexagon(4), annulus(6, 2), parallelogram(7, 3), line(9)] {
            let outcome = run_obd(&shape);
            for d in &outcome.decisions {
                assert!(
                    matches!(d.stable_segments, 1 | 2 | 3 | 6),
                    "stable boundary must have 1, 2, 3 or 6 segments, got {}",
                    d.stable_segments
                );
            }
        }
    }

    #[test]
    fn symmetric_hexagon_reaches_a_legal_stable_state() {
        // A perfectly symmetric hexagon boundary: depending on the merge
        // order the competition ends with 1, 2, 3 or 6 equal segments (the
        // paper tolerates up to 6 boundary leaders); the outer decision is
        // correct either way.
        let outcome = run_obd(&hexagon(3));
        let d = &outcome.decisions[0];
        assert!(matches!(d.stable_segments, 1 | 2 | 3 | 6));
        assert!(d.declared_outer);
        assert_eq!(d.count_sum, 6);
    }

    #[test]
    fn random_blobs_identify_outer_boundary() {
        for seed in 0..4 {
            let shape = random_blob(150, seed);
            check_flags_match_ground_truth(&shape);
        }
        for seed in 0..3 {
            let shape = random_holey_hexagon(7, 0.08, seed);
            check_flags_match_ground_truth(&shape);
        }
    }

    #[test]
    fn single_particle_is_outer() {
        let outcome = run_obd(&line(1));
        assert_eq!(outcome.decisions.len(), 1);
        assert!(outcome.decisions[0].declared_outer);
        assert_eq!(outcome.decisions[0].count_sum, 4);
    }

    #[test]
    fn rounds_scale_linearly_in_lout_plus_d() {
        // Theorem 41: O(L_out + D) rounds.
        let mut ratios = Vec::new();
        for radius in [3u32, 6, 9, 12] {
            let shape = hexagon(radius);
            let metric = Metric::new(&shape);
            let budget = shape.outer_boundary_len() as f64 + metric.grid_diameter() as f64;
            let outcome = run_obd(&shape);
            ratios.push(outcome.rounds as f64 / budget);
        }
        for r in &ratios {
            assert!(*r < 60.0, "rounds / (L_out + D) = {r} too large");
        }
        assert!(
            ratios.last().unwrap() < &(ratios.first().unwrap() * 2.0 + 1.0),
            "ratios {ratios:?} suggest super-linear scaling"
        );
    }

    #[test]
    fn round_breakdown_sums_to_total() {
        let outcome = run_obd(&annulus(5, 2));
        let (a, b, c, d) = outcome.round_breakdown;
        assert_eq!(outcome.rounds, a + b + c + d);
        assert!(c > 0, "outer walk must take at least one round");
    }
}
