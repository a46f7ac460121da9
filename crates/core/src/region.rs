//! Valid-region containment (Sec. IV-B).
//!
//! ANNs behave arbitrarily outside their training set, and prediction
//! errors amplify along gate chains. The paper computes the *concave hull*
//! of the 3-D training inputs and projects out-of-region queries onto it.
//! Concave hulls are not uniquely defined (the paper cites Moreira &
//! Santos' k-nearest-neighbour construction); we use the equivalent
//! kNN-distance membership test: a query is *inside* if its distance to the
//! nearest training point is within a data-derived threshold, and
//! projection snaps the query to the nearest training point. A kd-tree
//! makes both operations `O(log n)`.
//!
//! # One search per query
//!
//! [`ValidRegion::project`] answers both questions — inside? and if not,
//! which point? — from a single nearest-neighbour search. The search walks
//! the node array iteratively (an explicit stack of deferred far
//! subtrees, no recursion) and prunes a far subtree when its splitting
//! plane is no closer than the *best* distance found so far. Ties keep the
//! first point found: a candidate replaces the best only on a strict `<`,
//! in near-first visit order. Every point in a pruned subtree is at least
//! as far as the best at pruning time, so under that rule it could never
//! have replaced the best; the search therefore returns the same point as
//! an exhaustive near-first walk, and the same point as the previous
//! two-search form (containment test, then nearest-point search, both
//! pruning on the second-nearest distance), which the unit tests keep as
//! a reference oracle next to a brute-force scan. The second-nearest
//! distance is needed only at build time, to measure point spacing.

use serde::{Deserialize, Serialize};

use crate::transfer::TransferQuery;

/// A 3-D point in (normalized) transfer-feature space.
type Point = [f64; 3];

/// Deepest kd-tree [`ValidRegion::nearest`] walks. [`ValidRegion::build`]
/// splits at the median, so its trees are `⌊log₂ n⌋ + 1` levels deep.
const MAX_DEPTH: usize = 64;

/// kd-tree node in implicit array layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct KdNode {
    point: Point,
    /// Split axis at this node (depth % 3).
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// The valid input region of a trained transfer function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidRegion {
    nodes: Vec<KdNode>,
    root: Option<usize>,
    /// Per-axis normalization scale (so distances weigh T and slopes
    /// comparably).
    scales: [f64; 3],
    /// Inside iff nearest-neighbour distance (normalized) ≤ threshold.
    threshold: f64,
}

impl ValidRegion {
    /// Builds the region from the feature vectors of a training set.
    ///
    /// `margin` scales the membership threshold relative to the data's own
    /// typical nearest-neighbour spacing (≥ 1; the paper-equivalent
    /// "concave hull tightness" knob — larger is more permissive). A good
    /// default is 3.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or `margin` is not positive.
    #[must_use]
    pub fn build(points: &[[f64; 3]], margin: f64) -> Self {
        assert!(!points.is_empty(), "valid region needs training points");
        assert!(margin > 0.0, "margin must be positive");
        // Normalize each axis by its spread.
        let mut scales = [1.0f64; 3];
        for axis in 0..3 {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for p in points {
                lo = lo.min(p[axis]);
                hi = hi.max(p[axis]);
            }
            let spread = (hi - lo).abs();
            scales[axis] = if spread > 1e-12 { spread } else { 1.0 };
        }
        let normalized: Vec<Point> = points
            .iter()
            .map(|p| [p[0] / scales[0], p[1] / scales[1], p[2] / scales[2]])
            .collect();

        let mut region = Self {
            nodes: Vec::with_capacity(points.len()),
            root: None,
            scales,
            threshold: 0.0,
        };
        let mut idx: Vec<usize> = (0..normalized.len()).collect();
        region.root = region.build_rec(&normalized, &mut idx, 0);

        // Typical spacing: median nearest-neighbour distance (each point
        // queried against the tree excluding itself would need bookkeeping;
        // the second-nearest of a self-query is the same thing).
        let mut nn: Vec<f64> = normalized
            .iter()
            .map(|p| region.two_nearest(*p).1)
            .filter(|d| d.is_finite())
            .collect();
        nn.sort_by(f64::total_cmp);
        // Fallback for degenerate (single-point) regions: a tight default
        // of 5% of the normalized spread.
        let median = if nn.is_empty() {
            0.05
        } else {
            nn[nn.len() / 2].max(1e-9)
        };
        region.threshold = margin * median;
        region
    }

    fn build_rec(&mut self, pts: &[Point], idx: &mut [usize], depth: usize) -> Option<usize> {
        if idx.is_empty() {
            return None;
        }
        let axis = depth % 3;
        idx.sort_by(|&a, &b| pts[a][axis].total_cmp(&pts[b][axis]));
        let mid = idx.len() / 2;
        let point = pts[idx[mid]];
        let slot = self.nodes.len();
        self.nodes.push(KdNode {
            point,
            axis,
            left: None,
            right: None,
        });
        let (left_idx, rest) = idx.split_at_mut(mid);
        let right_idx = &mut rest[1..];
        let left = self.build_rec(pts, left_idx, depth + 1);
        let right = self.build_rec(pts, right_idx, depth + 1);
        self.nodes[slot].left = left;
        self.nodes[slot].right = right;
        Some(slot)
    }

    /// Nearest and second-nearest distances from `q` (normalized space):
    /// the build-time spacing measure.
    fn two_nearest(&self, q: Point) -> (f64, f64) {
        let mut best = (f64::INFINITY, f64::INFINITY, None::<Point>);
        self.search_two(self.root, q, &mut best);
        (best.0.sqrt(), best.1.sqrt())
    }

    /// Recursive two-nearest search, pruning on the second-nearest
    /// distance.
    fn search_two(&self, node: Option<usize>, q: Point, best: &mut (f64, f64, Option<Point>)) {
        let Some(i) = node else { return };
        let n = &self.nodes[i];
        let d2 = dist2(n.point, q);
        if d2 < best.0 {
            best.1 = best.0;
            best.0 = d2;
            best.2 = Some(n.point);
        } else if d2 < best.1 {
            best.1 = d2;
        }
        let delta = q[n.axis] - n.point[n.axis];
        let (near, far) = if delta < 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        self.search_two(near, q, best);
        if delta * delta < best.1 {
            self.search_two(far, q, best);
        }
    }

    /// Squared distance from `q` (normalized space) to its nearest
    /// training point, and that point (`None` only if no distance
    /// compares below infinity, e.g. for a NaN query).
    ///
    /// Iterative near-first descent: each node's far child is deferred on
    /// a fixed stack together with its squared plane distance, and is
    /// visited only if that distance is still below the best once the
    /// near side is done — the moment the recursive form would test it.
    fn nearest(&self, q: Point) -> (f64, Option<Point>) {
        let mut best_d2 = f64::INFINITY;
        let mut best = None;
        let mut deferred = [(0usize, 0.0f64); MAX_DEPTH];
        let mut top = 0;
        let mut next = self.root;
        loop {
            while let Some(i) = next {
                let n = &self.nodes[i];
                let d2 = dist2(n.point, q);
                if d2 < best_d2 {
                    best_d2 = d2;
                    best = Some(n.point);
                }
                let delta = q[n.axis] - n.point[n.axis];
                let (near, far) = if delta < 0.0 {
                    (n.left, n.right)
                } else {
                    (n.right, n.left)
                };
                if let Some(f) = far {
                    assert!(
                        top < MAX_DEPTH,
                        "valid-region kd-tree deeper than {MAX_DEPTH}"
                    );
                    deferred[top] = (f, delta * delta);
                    top += 1;
                }
                next = near;
            }
            loop {
                if top == 0 {
                    return (best_d2, best);
                }
                top -= 1;
                let (far, plane_d2) = deferred[top];
                if plane_d2 < best_d2 {
                    next = Some(far);
                    break;
                }
            }
        }
    }

    fn normalize(&self, q: &TransferQuery) -> Point {
        [
            q.t / self.scales[0],
            q.a_in / self.scales[1],
            q.a_prev_out / self.scales[2],
        ]
    }

    /// `true` if the query lies inside the valid region.
    #[must_use]
    pub fn contains(&self, query: &TransferQuery) -> bool {
        self.nearest(self.normalize(query)).0.sqrt() <= self.threshold
    }

    /// Projects the query into the region: queries already inside are
    /// returned unchanged, outside queries snap to the closest training
    /// point ("compute the closest point on the concave hull and use these
    /// coordinates as inputs instead", Sec. IV-B). One nearest-neighbour
    /// search decides both.
    #[must_use]
    pub fn project(&self, query: TransferQuery) -> TransferQuery {
        let (d2, nearest) = self.nearest(self.normalize(&query));
        if d2.sqrt() <= self.threshold {
            return query;
        }
        let p = nearest.expect("tree non-empty");
        TransferQuery {
            t: p[0] * self.scales[0],
            a_in: p[1] * self.scales[1],
            a_prev_out: p[2] * self.scales[2],
        }
    }

    /// Number of stored training points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `false`: construction requires at least one point.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Builds the region from a dataset's polarity half.
    #[must_use]
    pub fn from_samples(samples: &[sigchar::TransferSample], margin: f64) -> Self {
        let pts: Vec<[f64; 3]> = samples.iter().map(|s| s.features()).collect();
        Self::build(&pts, margin)
    }
}

fn dist2(a: Point, b: Point) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl ValidRegion {
        /// Reference oracle: the previous projection, a containment test
        /// followed by a second search for the point, both pruning on the
        /// second-nearest distance.
        fn project_two_search(&self, query: TransferQuery) -> TransferQuery {
            let norm = self.normalize(&query);
            if self.two_nearest(norm).0 <= self.threshold {
                return query;
            }
            let mut best = (f64::INFINITY, f64::INFINITY, None::<Point>);
            self.search_two(self.root, norm, &mut best);
            let p = best.2.expect("tree non-empty");
            TransferQuery {
                t: p[0] * self.scales[0],
                a_in: p[1] * self.scales[1],
                a_prev_out: p[2] * self.scales[2],
            }
        }
    }

    /// Reference oracle: the minimum squared distance from `norm` to any
    /// training point, by exhaustive scan in the region's normalized space.
    fn brute_min_d2(r: &ValidRegion, pts: &[[f64; 3]], norm: Point) -> f64 {
        pts.iter()
            .map(|p| {
                let n = [p[0] / r.scales[0], p[1] / r.scales[1], p[2] / r.scales[2]];
                dist2(n, norm)
            })
            .fold(f64::INFINITY, f64::min)
    }

    fn query_bits(q: &TransferQuery) -> [u64; 3] {
        [q.t.to_bits(), q.a_in.to_bits(), q.a_prev_out.to_bits()]
    }

    fn grid() -> Vec<[f64; 3]> {
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                for k in 0..5 {
                    pts.push([i as f64 * 0.1, 5.0 + j as f64, -(5.0 + k as f64)]);
                }
            }
        }
        pts
    }

    fn q(t: f64, a_in: f64, a_prev: f64) -> TransferQuery {
        TransferQuery {
            t,
            a_in,
            a_prev_out: a_prev,
        }
    }

    #[test]
    fn training_points_are_inside() {
        let r = ValidRegion::build(&grid(), 3.0);
        for p in grid().iter().step_by(17) {
            assert!(r.contains(&q(p[0], p[1], p[2])));
        }
    }

    #[test]
    fn far_points_are_outside() {
        let r = ValidRegion::build(&grid(), 3.0);
        assert!(!r.contains(&q(100.0, 5.0, -5.0)));
        assert!(!r.contains(&q(0.5, 500.0, -5.0)));
    }

    #[test]
    fn projection_is_idempotent_and_inside() {
        let r = ValidRegion::build(&grid(), 3.0);
        let outside = q(50.0, 80.0, -40.0);
        let p = r.project(outside);
        assert!(r.contains(&p), "projected point must be inside");
        let pp = r.project(p);
        assert_eq!(p, pp, "projection must be idempotent");
    }

    #[test]
    fn inside_projection_is_identity() {
        let r = ValidRegion::build(&grid(), 3.0);
        let inside = q(0.41, 7.03, -6.97);
        assert!(r.contains(&inside));
        assert_eq!(r.project(inside), inside);
    }

    #[test]
    fn concavity_hole_detected() {
        // Points on a ring (hole in the middle): a convex hull would call
        // the centre inside, the kNN region must not.
        let mut pts = Vec::new();
        for i in 0..200 {
            let ang = i as f64 * std::f64::consts::TAU / 200.0;
            pts.push([10.0 * ang.cos(), 10.0 * ang.sin(), 0.0]);
        }
        let r = ValidRegion::build(&pts, 2.0);
        assert!(
            !r.contains(&q(0.0, 0.0, 0.0)),
            "hole centre must be outside the concave region"
        );
        assert!(r.contains(&q(10.0, 0.0, 0.0)));
    }

    #[test]
    fn single_point_region() {
        let r = ValidRegion::build(&[[1.0, 2.0, 3.0]], 3.0);
        assert_eq!(r.len(), 1);
        let proj = r.project(q(9.0, 9.0, 9.0));
        assert!((proj.t - 1.0).abs() < 1e-9);
        assert!((proj.a_in - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "needs training points")]
    fn empty_rejected() {
        let _ = ValidRegion::build(&[], 3.0);
    }

    proptest! {
        /// The one-search projection refines both references: it returns
        /// bit-for-bit what the old two-search form returns, and the point
        /// it finds is at the brute-force minimum distance. Queries cover
        /// random and far positions, training points themselves, their
        /// float neighbours, and midpoints between two training points
        /// (equidistant ties, frequent on the integer lattice, which also
        /// produces duplicate points).
        #[test]
        fn project_refines_two_search_and_brute_force(
            seed in 0u64..u64::MAX,
            n in 1usize..80,
            dups in 0usize..12,
            lattice in any::<bool>(),
            margin in 0.3..4.0f64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let coord = |rng: &mut StdRng| {
                if lattice {
                    f64::from(rng.gen_range(-3i32..4))
                } else {
                    rng.gen_range(-10.0..10.0)
                }
            };
            let mut pts: Vec<[f64; 3]> = (0..n)
                .map(|_| [coord(&mut rng), 5.0 + coord(&mut rng), coord(&mut rng) - 5.0])
                .collect();
            for _ in 0..dups {
                let p = pts[rng.gen_range(0..pts.len())];
                pts.push(p);
            }
            let r = ValidRegion::build(&pts, margin);

            let mut queries = Vec::new();
            for _ in 0..24 {
                queries.push([
                    rng.gen_range(-15.0..15.0),
                    rng.gen_range(-10.0..20.0),
                    rng.gen_range(-20.0..10.0),
                ]);
            }
            for _ in 0..8 {
                let far = 10f64.powi(rng.gen_range(2..9));
                queries.push([
                    far * rng.gen_range(-1.0..1.0),
                    far * rng.gen_range(-1.0..1.0),
                    far * rng.gen_range(-1.0..1.0),
                ]);
            }
            for _ in 0..12 {
                let a = pts[rng.gen_range(0..pts.len())];
                let b = pts[rng.gen_range(0..pts.len())];
                queries.push(a);
                queries.push([a[0].next_up(), a[1], a[2].next_down()]);
                queries.push([a[0] + 1e-9, a[1] - 1e-9, a[2]]);
                queries.push([
                    0.5 * (a[0] + b[0]),
                    0.5 * (a[1] + b[1]),
                    0.5 * (a[2] + b[2]),
                ]);
            }

            for probe in queries {
                let query = q(probe[0], probe[1], probe[2]);
                let fast = r.project(query);
                let reference = r.project_two_search(query);
                prop_assert_eq!(query_bits(&fast), query_bits(&reference),
                    "query {:?}: {:?} vs two-search {:?}", query, fast, reference);

                let norm = r.normalize(&query);
                let (d2, nearest) = r.nearest(norm);
                let brute = brute_min_d2(&r, &pts, norm);
                prop_assert_eq!(d2.to_bits(), brute.to_bits(),
                    "query {:?}: kd {} vs brute {}", query, d2, brute);
                let p = nearest.expect("non-empty tree");
                prop_assert_eq!(dist2(p, norm).to_bits(), brute.to_bits());
                prop_assert_eq!(r.contains(&query), brute.sqrt() <= r.threshold);
            }
        }

        #[test]
        fn nearest_matches_brute_force(
            pts in proptest::collection::vec(
                proptest::array::uniform3(-10.0..10.0f64), 1..60),
            probe in proptest::array::uniform3(-15.0..15.0f64),
        ) {
            let r = ValidRegion::build(&pts, 3.0);
            let query = q(probe[0], probe[1], probe[2]);
            let norm = r.normalize(&query);
            let (d, _) = r.two_nearest(norm);
            // Brute force in the same normalized space.
            let brute = pts
                .iter()
                .map(|p| {
                    let n = [p[0] / r.scales[0], p[1] / r.scales[1], p[2] / r.scales[2]];
                    dist2(n, norm).sqrt()
                })
                .fold(f64::INFINITY, f64::min);
            prop_assert!((d - brute).abs() < 1e-9, "kd {d} vs brute {brute}");
        }
    }
}
