//! Algorithm Collect — reconnection after DLE (Section 4.3 of the paper).
//!
//! After Algorithm DLE terminates the particle system may be disconnected,
//! but it satisfies the *breadcrumb* property (Lemma 19): there is a
//! contracted particle at every grid distance `0..=ε_G(l)` from the leader's
//! point `l`, and none farther. Algorithm Collect exploits this to gather all
//! particles in `O(log ε_G(l))` phases: in phase `i` a *stem* of `k = 2^{i-1}`
//! collected particles moves `k` points outward from `l` (primitive **OMP**),
//! performs a full clockwise rotation around `l` sweeping the annulus of grid
//! distances `k..=2k-1` and collecting every particle it meets (primitive
//! **PRP**, six partial rotations), and finally moves back to `l`, absorbing
//! newly collected particles to double its size (primitive **SDP**). The
//! phase costs `O(k)` rounds (Lemmas 24, 26, 27), so the whole algorithm runs
//! in `O(ε_G(l)) = O(D_G)` rounds (Theorem 23). When a phase collects
//! nothing, every particle has been collected and the collected structure —
//! the stem plus per-distance *branches* hung counter-clockwise behind it —
//! is connected (Lemma 20), so the algorithm terminates with a connected
//! system.
//!
//! ## Fidelity note
//!
//! This module simulates Collect at the granularity of the three movement
//! primitives: the geometry of each phase (which particles are collected,
//! which grid distances they keep, where the stem and branches end up) is
//! computed exactly, and each primitive is charged the pipelined round cost
//! established by the paper's lemmas (`2k` for OMP, `6·4k` for PRP, `3k` for
//! SDP, plus constant overhead). The intra-primitive token/permit forwarding
//! of Algorithm 1 / Algorithm 2 is not simulated per activation; the
//! breadcrumb invariant, the doubling behaviour (Corollary 22), the final
//! connectivity (Theorem 23) and the `O(D_G)` round total are all preserved
//! and tested.

use pm_grid::{Point, Shape};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Round cost of primitive OMP for a stem of size `k` (Lemma 24: `O(k)`; the
/// constant 2 reflects the pipelined expansion pass plus contraction pass).
pub fn omp_rounds(k: u64) -> u64 {
    2 * k + 2
}

/// Round cost of primitive PRP for a stem of size `k` (Lemma 26: `O(k)` per
/// partial rotation; a full rotation is six partial rotations, each a move of
/// `k` points plus a rotation around the stem's root).
pub fn prp_rounds(k: u64) -> u64 {
    6 * (4 * k + 2)
}

/// Round cost of primitive SDP for a stem of size `k` (Lemma 27: `O(k)`; one
/// expansion pass, one contraction pass, one absorption pass).
pub fn sdp_rounds(k: u64) -> u64 {
    3 * k + 2
}

/// Per-phase record of Algorithm Collect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase index, starting at 1.
    pub index: usize,
    /// Stem size `k` at the start of the phase.
    pub stem_start: usize,
    /// Stem size at the end of the phase (`min(2k, #collected)` — Lemma 21).
    pub stem_end: usize,
    /// Number of particles collected during the phase.
    pub newly_collected: usize,
    /// Rounds charged to the phase (OMP + PRP + SDP).
    pub rounds: u64,
}

/// The result of running Algorithm Collect.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CollectOutcome {
    /// Total rounds across all phases (including the final empty phase).
    pub rounds: u64,
    /// Per-phase records.
    pub phases: Vec<PhaseRecord>,
    /// Final positions of all particles (the leader is at its original point
    /// `l`; the stem extends east of it, branches hang counter-clockwise).
    pub final_positions: Vec<Point>,
    /// Whether the final configuration is connected (Theorem 23 — always
    /// true when the input satisfies the breadcrumb property).
    pub final_connected: bool,
    /// Number of particles that were never collected (0 whenever the input
    /// satisfies Lemma 19's breadcrumb property).
    pub uncollected_remaining: usize,
    /// The grid eccentricity `ε_G(l)` of the input configuration.
    pub eccentricity: u32,
}

impl CollectOutcome {
    /// The final shape of the particle system.
    pub fn final_shape(&self) -> Shape {
        Shape::from_points(self.final_positions.iter().copied())
    }
}

/// Simulator for Algorithm Collect (see the module documentation).
#[derive(Clone, Debug)]
pub struct CollectSimulator {
    leader: Point,
    /// Grid distance (from the leader) of every non-leader particle that has
    /// not been collected yet, as a multiset keyed by distance.
    uncollected: BTreeMap<u32, usize>,
    /// Number of collected particles assigned to each grid distance
    /// ("ring"); collected particles keep the distance at which they were
    /// collected, exactly as branch particles do in the paper.
    collected: BTreeMap<u32, usize>,
    eccentricity: u32,
}

impl CollectSimulator {
    /// Creates a simulator from the leader's point and the positions of all
    /// particles after DLE (the leader's own position may be included or
    /// omitted; it is handled either way).
    pub fn new(leader: Point, particle_positions: &[Point]) -> CollectSimulator {
        let mut uncollected: BTreeMap<u32, usize> = BTreeMap::new();
        let mut eccentricity = 0;
        let mut leader_seen = false;
        for p in particle_positions {
            let d = leader.grid_distance(*p);
            eccentricity = eccentricity.max(d);
            if d == 0 && !leader_seen {
                // The leader itself: collected from the start.
                leader_seen = true;
                continue;
            }
            *uncollected.entry(d).or_insert(0) += 1;
        }
        let mut collected = BTreeMap::new();
        collected.insert(0, 1);
        CollectSimulator {
            leader,
            uncollected,
            collected,
            eccentricity,
        }
    }

    /// The leader's point `l`.
    pub fn leader(&self) -> Point {
        self.leader
    }

    /// The grid eccentricity `ε_G(l)` of the input configuration.
    pub fn eccentricity(&self) -> u32 {
        self.eccentricity
    }

    /// Whether the input satisfies Lemma 19's breadcrumb property: at least
    /// one particle at every grid distance `1..=ε_G(l)` from the leader.
    pub fn has_breadcrumbs(&self) -> bool {
        (1..=self.eccentricity).all(|d| {
            self.uncollected.get(&d).copied().unwrap_or(0)
                + self.collected.get(&d).copied().unwrap_or(0)
                > 0
        })
    }

    /// Runs Algorithm Collect and returns the outcome.
    pub fn run(&mut self) -> CollectOutcome {
        let mut phases = Vec::new();
        let mut rounds = 0u64;
        let mut stem = 1usize;
        let mut index = 0usize;
        loop {
            index += 1;
            let k = stem as u64;
            let phase_rounds = omp_rounds(k) + prp_rounds(k) + sdp_rounds(k);
            rounds += phase_rounds;

            // OMP + PRP sweep all points at grid distance k..=2k-1 from l
            // (Lemma 21): every uncollected particle in that annulus is
            // collected and keeps its distance (it becomes a stem or branch
            // particle at that distance).
            let lo = stem as u32;
            let hi = (2 * stem - 1) as u32;
            let mut newly = 0usize;
            let in_range: Vec<u32> = self.uncollected.range(lo..=hi).map(|(d, _)| *d).collect();
            for d in in_range {
                let count = self.uncollected.remove(&d).unwrap_or(0);
                newly += count;
                *self.collected.entry(d).or_insert(0) += count;
            }

            let stem_start = stem;
            if newly == 0 {
                // Final phase: nothing collected, terminate.
                phases.push(PhaseRecord {
                    index,
                    stem_start,
                    stem_end: stem,
                    newly_collected: 0,
                    rounds: phase_rounds,
                });
                break;
            }

            // SDP: the stem doubles, capped by the number of collected
            // particles (Lemma 21: k' ∈ {min(2k, ε_G(l)), …, 2k}).
            let total_collected: usize = self.collected.values().sum();
            stem = (2 * stem).min(total_collected);
            phases.push(PhaseRecord {
                index,
                stem_start,
                stem_end: stem,
                newly_collected: newly,
                rounds: phase_rounds,
            });
        }

        let uncollected_remaining: usize = self.uncollected.values().sum();
        let final_positions = self.final_placement();
        let final_shape = Shape::from_points(final_positions.iter().copied());
        CollectOutcome {
            rounds,
            phases,
            final_connected: final_shape.is_connected() && uncollected_remaining == 0,
            final_positions,
            uncollected_remaining,
            eccentricity: self.eccentricity,
        }
    }

    /// Places every collected particle on the grid: the particle(s) assigned
    /// to grid distance `d` occupy a contiguous arc of the ring of radius `d`
    /// around the leader, starting at the stem's ray point (due east of `l`)
    /// and continuing counter-clockwise behind it — the stem-plus-branches
    /// structure of Section 4.3.2. Uncollected stragglers (only possible when
    /// the breadcrumb precondition is violated) keep a far-away placeholder
    /// position so the connectivity check reports the failure.
    fn final_placement(&self) -> Vec<Point> {
        let mut out = Vec::new();
        for (&d, &count) in &self.collected {
            let ring = self.leader.ring(d);
            debug_assert!(
                count <= ring.len(),
                "ring {d} holds {count} particles but has only {} points",
                ring.len()
            );
            out.extend(ring.into_iter().take(count));
        }
        // Stragglers (precondition violations) are reported by keeping them
        // at an arbitrary distant location per distance class.
        for (&d, &count) in &self.uncollected {
            let ring = self.leader.ring(d + 2 * self.eccentricity + 4);
            out.extend(ring.into_iter().take(count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dle::run_dle;
    use pm_amoebot::scheduler::RoundRobin;
    use pm_grid::builder::{annulus, hexagon, line, spiral};

    fn collect_after_dle(shape: &Shape) -> CollectOutcome {
        let dle = run_dle(shape, RoundRobin, false).unwrap();
        let mut sim = CollectSimulator::new(dle.leader_point, &dle.final_positions);
        assert!(sim.has_breadcrumbs(), "DLE output must satisfy Lemma 19");
        sim.run()
    }

    #[test]
    fn single_particle_terminates_in_one_phase() {
        let mut sim = CollectSimulator::new(Point::ORIGIN, &[Point::ORIGIN]);
        let outcome = sim.run();
        assert_eq!(outcome.phases.len(), 1);
        assert_eq!(outcome.final_positions.len(), 1);
        assert!(outcome.final_connected);
        assert_eq!(outcome.uncollected_remaining, 0);
    }

    #[test]
    fn breadcrumb_line_is_collected_and_connected() {
        // A breadcrumb trail: one particle per distance 0..=10.
        let positions: Vec<Point> = (0..=10).map(|i| Point::new(i, 0)).collect();
        let mut sim = CollectSimulator::new(Point::ORIGIN, &positions);
        assert!(sim.has_breadcrumbs());
        assert_eq!(sim.eccentricity(), 10);
        let outcome = sim.run();
        assert!(outcome.final_connected);
        assert_eq!(outcome.final_positions.len(), positions.len());
        assert_eq!(outcome.uncollected_remaining, 0);
    }

    #[test]
    fn stem_doubles_per_phase_corollary_22() {
        let positions: Vec<Point> = (0..=20).map(|i| Point::new(i, 0)).collect();
        let mut sim = CollectSimulator::new(Point::ORIGIN, &positions);
        let outcome = sim.run();
        for phase in &outcome.phases {
            if phase.newly_collected > 0 && phase.stem_end < outcome.final_positions.len() {
                assert_eq!(
                    phase.stem_end,
                    2 * phase.stem_start,
                    "stem must double while particles remain (phase {})",
                    phase.index
                );
            }
            assert!(phase.stem_end <= 2 * phase.stem_start);
        }
        // Number of collecting phases is logarithmic in the eccentricity.
        let collecting = outcome
            .phases
            .iter()
            .filter(|p| p.newly_collected > 0)
            .count();
        assert!(collecting <= (outcome.eccentricity as f64).log2().ceil() as usize + 1);
    }

    #[test]
    fn rounds_are_linear_in_eccentricity() {
        // Theorem 23: O(D_G) rounds. Since the phase costs form a geometric
        // series, total rounds <= c * eps for a fixed constant c.
        for eps in [4u32, 16, 64, 256] {
            let positions: Vec<Point> = (0..=eps as i32).map(|i| Point::new(i, 0)).collect();
            let mut sim = CollectSimulator::new(Point::ORIGIN, &positions);
            let outcome = sim.run();
            assert!(
                outcome.rounds <= 140 * eps as u64 + 200,
                "rounds {} not linear in eps {eps}",
                outcome.rounds
            );
        }
    }

    #[test]
    fn collect_reconnects_dle_output_on_various_shapes() {
        for shape in [
            annulus(5, 2),
            hexagon(4),
            spiral(50),
            line(17),
            annulus(7, 4),
        ] {
            let n = shape.len();
            let outcome = collect_after_dle(&shape);
            assert!(
                outcome.final_connected,
                "final configuration must be connected"
            );
            assert_eq!(outcome.final_positions.len(), n, "no particle may be lost");
            assert_eq!(outcome.uncollected_remaining, 0);
            // All particles end within eps of the leader.
            let leader = outcome.final_positions[0];
            let max_d = outcome
                .final_positions
                .iter()
                .map(|p| leader.grid_distance(*p))
                .max()
                .unwrap();
            assert!(max_d <= outcome.eccentricity);
        }
    }

    #[test]
    fn violated_breadcrumbs_are_reported() {
        // A gap at distance 1: the phase-1 sweep finds nothing and Collect
        // terminates early, reporting the stragglers.
        let positions = vec![Point::ORIGIN, Point::new(5, 0)];
        let mut sim = CollectSimulator::new(Point::ORIGIN, &positions);
        assert!(!sim.has_breadcrumbs());
        let outcome = sim.run();
        assert_eq!(outcome.uncollected_remaining, 1);
        assert!(!outcome.final_connected);
    }

    #[test]
    fn ring_capacity_is_respected() {
        // Many particles at the same distance: a full ring of distance 2 plus
        // breadcrumbs; the placement must fit every ring.
        let mut positions = vec![Point::ORIGIN, Point::new(1, 0)];
        positions.extend(Point::ORIGIN.ring(2));
        let mut sim = CollectSimulator::new(Point::ORIGIN, &positions);
        let outcome = sim.run();
        assert!(outcome.final_connected);
        assert_eq!(outcome.final_positions.len(), positions.len());
        // Positions are distinct.
        let mut dedup = outcome.final_positions.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), positions.len());
    }

    #[test]
    fn phase_cost_model_constants() {
        assert_eq!(omp_rounds(4), 10);
        assert_eq!(prp_rounds(4), 108);
        assert_eq!(sdp_rounds(4), 14);
    }
}
