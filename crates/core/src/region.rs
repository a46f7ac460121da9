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
//! # One box-bounded search per query
//!
//! [`ValidRegion::snap`] answers both questions — inside? and if not,
//! which stored point? — from a single nearest-neighbour search, and
//! returns the point's *index* so callers can key per-point data on it
//! (`GateModel` keeps a prediction per snapped point);
//! [`ValidRegion::project`] and [`ValidRegion::contains`] are thin
//! wrappers over the same search.
//!
//! The search walks the node array iteratively (an explicit stack of
//! deferred far subtrees, near side first) and skips a subtree whose
//! *bounding box* is no closer than the best distance found so far. Each
//! node stores the box of its subtree, computed in one `O(n)` pass when
//! the region is built and again when it is loaded. Ties keep the first
//! point found: a candidate replaces the best only on a strict `<`.
//!
//! The box bound is exact in floating point, not only in real arithmetic.
//! For a point `p` in a box `[lo, hi]` and a query below the box on some
//! axis, `p − q ≥ lo − q > 0`, and rounding is monotone, so the computed
//! gap is no larger than the computed coordinate difference; squaring
//! non-negative values and adding them in the same order as the point
//! distance are monotone too. The computed box distance is therefore
//! never larger than any contained point's computed distance, and a
//! skipped subtree cannot hold a strict improvement. Under the strict `<`
//! tie rule the walk thus returns the first minimum in near-first order,
//! the same point as the exhaustive walk. The unit tests check it against
//! three reference oracles: a walk pruning on splitting-plane distance,
//! a two-search form (containment test, then nearest-point search, both
//! pruning on the second-nearest distance) and a brute-force scan. The
//! second-nearest distance is needed only at build time, to measure
//! point spacing.
//!
//! # Serialized form
//!
//! The boxes are derived data: the JSON form holds only the tree (nodes,
//! root, axis scales, threshold), and the boxes are rebuilt on load, so
//! model caches written without them keep loading. Loading checks the
//! tree's shape (children after their parent, bounded depth) before it
//! rebuilds the boxes, and rejects a malformed tree with an error.

use serde::{Deserialize, Serialize};

use crate::transfer::TransferQuery;

/// A 3-D point in (normalized) transfer-feature space.
type Point = [f64; 3];

/// Deepest kd-tree [`ValidRegion::nearest`] walks. [`ValidRegion::build`]
/// splits at the median, so its trees are `⌊log₂ n⌋ + 1` levels deep;
/// loading rejects deeper trees.
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

/// The serialized part of a [`ValidRegion`]: the kd-tree and its
/// normalization. Its field set is the region's JSON format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct KdTree {
    nodes: Vec<KdNode>,
    root: Option<usize>,
    /// Per-axis normalization scale (so distances weigh T and slopes
    /// comparably).
    scales: [f64; 3],
    /// Inside iff nearest-neighbour distance (normalized) ≤ threshold.
    threshold: f64,
}

/// The axis-aligned bounding box `[lo, hi]` of a kd subtree's points.
type Aabb = [Point; 2];

/// The valid input region of a trained transfer function.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidRegion {
    tree: KdTree,
    /// `boxes[i]` bounds the subtree rooted at `tree.nodes[i]`.
    boxes: Vec<Aabb>,
}

impl Serialize for ValidRegion {
    fn to_value(&self) -> serde::Value {
        self.tree.to_value()
    }
}

impl Deserialize for ValidRegion {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Self::from_tree(KdTree::from_value(v)?)
            .map_err(|e| serde::Error::new(format!("valid region: {e}")))
    }
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

        let mut tree = KdTree {
            nodes: Vec::with_capacity(points.len()),
            root: None,
            scales,
            threshold: 0.0,
        };
        let mut idx: Vec<usize> = (0..normalized.len()).collect();
        tree.root = tree.build_rec(&normalized, &mut idx, 0);

        // Typical spacing: median nearest-neighbour distance (each point
        // queried against the tree excluding itself would need bookkeeping;
        // the second-nearest of a self-query is the same thing).
        let mut nn: Vec<f64> = normalized
            .iter()
            .map(|p| tree.two_nearest(*p).1)
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
        tree.threshold = margin * median;
        Self::from_tree(tree).expect("median-split trees are well-formed")
    }

    /// Checks a tree's shape and derives its subtree boxes.
    ///
    /// Every child must come after its parent in the node array (the
    /// pre-order layout [`KdTree::build_rec`] produces), so one reverse
    /// pass sees each child's box before its parent's; and no path may be
    /// deeper than [`MAX_DEPTH`], which bounds the search stack.
    fn from_tree(tree: KdTree) -> Result<Self, String> {
        let n = tree.nodes.len();
        if n == 0 || tree.root.is_none_or(|r| r >= n) {
            return Err(format!("root {:?} invalid for {n} nodes", tree.root));
        }
        let mut depth = vec![0usize; n];
        for (i, node) in tree.nodes.iter().enumerate() {
            if node.axis >= 3 {
                return Err(format!("node {i}: axis {}", node.axis));
            }
            for child in [node.left, node.right].into_iter().flatten() {
                if child <= i || child >= n {
                    return Err(format!("node {i}: child {child} out of order"));
                }
                depth[child] = depth[child].max(depth[i] + 1);
                if depth[child] >= MAX_DEPTH {
                    return Err(format!("kd-tree deeper than {MAX_DEPTH}"));
                }
            }
        }
        let mut boxes: Vec<Aabb> = tree.nodes.iter().map(|nd| [nd.point, nd.point]).collect();
        for i in (0..n).rev() {
            let node = &tree.nodes[i];
            for child in [node.left, node.right].into_iter().flatten() {
                let [lo, hi] = boxes[child];
                for axis in 0..3 {
                    boxes[i][0][axis] = boxes[i][0][axis].min(lo[axis]);
                    boxes[i][1][axis] = boxes[i][1][axis].max(hi[axis]);
                }
            }
        }
        Ok(Self { tree, boxes })
    }

    /// Index of the first stored point at the minimum squared distance
    /// from `q` (normalized space) in near-first order, with that
    /// distance; `None` only if no distance compares below infinity (e.g.
    /// for a NaN query).
    ///
    /// Iterative near-first descent: each node's far child is deferred on
    /// a fixed stack together with its box distance, and is visited only
    /// if that distance is still below the best once the near side is
    /// done; a near child is entered only if its box distance is below
    /// the best.
    fn nearest(&self, q: Point) -> (f64, Option<usize>) {
        let nodes = &self.tree.nodes;
        let mut best_d2 = f64::INFINITY;
        let mut best = None;
        let mut deferred = [(0usize, 0.0f64); MAX_DEPTH];
        let mut top = 0;
        let mut next = self
            .tree
            .root
            .filter(|&r| box_dist2(&self.boxes[r], q) < best_d2);
        loop {
            while let Some(i) = next {
                let n = &nodes[i];
                let d2 = dist2(n.point, q);
                if d2 < best_d2 {
                    best_d2 = d2;
                    best = Some(i);
                }
                let delta = q[n.axis] - n.point[n.axis];
                let (near, far) = if delta < 0.0 {
                    (n.left, n.right)
                } else {
                    (n.right, n.left)
                };
                if let Some(f) = far {
                    let box_d2 = box_dist2(&self.boxes[f], q);
                    if box_d2 < best_d2 {
                        deferred[top] = (f, box_d2);
                        top += 1;
                    }
                }
                next = near.filter(|&c| box_dist2(&self.boxes[c], q) < best_d2);
            }
            loop {
                if top == 0 {
                    return (best_d2, best);
                }
                top -= 1;
                let (far, box_d2) = deferred[top];
                if box_d2 < best_d2 {
                    next = Some(far);
                    break;
                }
            }
        }
    }

    fn normalize(&self, q: &TransferQuery) -> Point {
        let s = &self.tree.scales;
        [q.t / s[0], q.a_in / s[1], q.a_prev_out / s[2]]
    }

    /// The stored point a query snaps to: `None` if the query lies inside
    /// the region, otherwise the index (`< len()`) of its nearest stored
    /// point, whose coordinates [`ValidRegion::point`] returns. Equal
    /// queries always give the same answer; among equidistant points the
    /// first in the search's near-first order wins.
    ///
    /// # Panics
    ///
    /// Panics if no stored point compares closer than infinity, i.e. for
    /// a query with a NaN or infinite coordinate.
    #[must_use]
    pub fn snap(&self, query: &TransferQuery) -> Option<usize> {
        let (d2, nearest) = self.nearest(self.normalize(query));
        if d2.sqrt() <= self.tree.threshold {
            return None;
        }
        Some(nearest.expect("tree non-empty"))
    }

    /// The coordinates of stored point `index` (see [`ValidRegion::snap`])
    /// in query units.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn point(&self, index: usize) -> TransferQuery {
        let p = self.tree.nodes[index].point;
        let s = &self.tree.scales;
        TransferQuery {
            t: p[0] * s[0],
            a_in: p[1] * s[1],
            a_prev_out: p[2] * s[2],
        }
    }

    /// `true` if the query lies inside the valid region.
    #[must_use]
    pub fn contains(&self, query: &TransferQuery) -> bool {
        self.nearest(self.normalize(query)).0.sqrt() <= self.tree.threshold
    }

    /// Projects the query into the region: queries already inside are
    /// returned unchanged, outside queries snap to the closest training
    /// point ("compute the closest point on the concave hull and use these
    /// coordinates as inputs instead", Sec. IV-B). One nearest-neighbour
    /// search decides both.
    #[must_use]
    pub fn project(&self, query: TransferQuery) -> TransferQuery {
        match self.snap(&query) {
            None => query,
            Some(index) => self.point(index),
        }
    }

    /// Number of stored training points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.nodes.len()
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

impl KdTree {
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
}

fn dist2(a: Point, b: Point) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

/// Squared distance from `q` to a box, computed like [`dist2`] (per-axis
/// gap, squared, summed in the same order) so that it never exceeds the
/// computed [`dist2`] of any point inside the box; see the module docs.
fn box_dist2(b: &Aabb, q: Point) -> f64 {
    let gap = |axis: usize| {
        if q[axis] < b[0][axis] {
            b[0][axis] - q[axis]
        } else if q[axis] > b[1][axis] {
            q[axis] - b[1][axis]
        } else {
            0.0
        }
    };
    let (dx, dy, dz) = (gap(0), gap(1), gap(2));
    dx * dx + dy * dy + dz * dz
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl ValidRegion {
        /// Reference oracle: the two-search projection, a containment
        /// test followed by a second search for the point, both pruning
        /// on the second-nearest distance.
        fn project_two_search(&self, query: TransferQuery) -> TransferQuery {
            let t = &self.tree;
            let norm = self.normalize(&query);
            if t.two_nearest(norm).0 <= t.threshold {
                return query;
            }
            let mut best = (f64::INFINITY, f64::INFINITY, None::<Point>);
            t.search_two(t.root, norm, &mut best);
            let p = best.2.expect("tree non-empty");
            TransferQuery {
                t: p[0] * t.scales[0],
                a_in: p[1] * t.scales[1],
                a_prev_out: p[2] * t.scales[2],
            }
        }

        /// Reference oracle: the plane-pruned 1-NN walk, the same
        /// near-first order and tie rule as [`ValidRegion::nearest`] but
        /// pruning a far subtree on its splitting-plane distance, with no
        /// boxes.
        fn nearest_plane(&self, q: Point) -> (f64, Option<usize>) {
            let nodes = &self.tree.nodes;
            let mut best_d2 = f64::INFINITY;
            let mut best = None;
            let mut deferred = Vec::new();
            let mut next = self.tree.root;
            loop {
                while let Some(i) = next {
                    let n = &nodes[i];
                    let d2 = dist2(n.point, q);
                    if d2 < best_d2 {
                        best_d2 = d2;
                        best = Some(i);
                    }
                    let delta = q[n.axis] - n.point[n.axis];
                    let (near, far) = if delta < 0.0 {
                        (n.left, n.right)
                    } else {
                        (n.right, n.left)
                    };
                    if let Some(f) = far {
                        deferred.push((f, delta * delta));
                    }
                    next = near;
                }
                loop {
                    let Some((far, plane_d2)) = deferred.pop() else {
                        return (best_d2, best);
                    };
                    if plane_d2 < best_d2 {
                        next = Some(far);
                        break;
                    }
                }
            }
        }
    }

    /// Reference oracle: the minimum squared distance from `norm` to any
    /// training point, by exhaustive scan in the region's normalized space.
    fn brute_min_d2(r: &ValidRegion, pts: &[[f64; 3]], norm: Point) -> f64 {
        let s = r.tree.scales;
        pts.iter()
            .map(|p| dist2([p[0] / s[0], p[1] / s[1], p[2] / s[2]], norm))
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

    /// The region's JSON is the model-cache format: pinned here, so a
    /// drift (a new field, a renamed one, the derived boxes leaking into
    /// it) fails. A region loaded from the pinned string rebuilds its
    /// boxes and snaps every probe exactly like the freshly built one.
    #[test]
    fn serialized_form_is_pinned_and_reloads_exactly() {
        const GOLDEN: &str = concat!(
            r#"{"nodes":[{"point":[0.5,2.5,-0.5],"axis":0,"left":1,"right":2},"#,
            r#"{"point":[0,2,-1],"axis":1,"left":null,"right":null},"#,
            r#"{"point":[1,3,-1.5],"axis":1,"left":null,"right":null}],"#,
            r#""root":0,"scales":[1,2,2],"threshold":2.598076211353316}"#
        );
        let built =
            ValidRegion::build(&[[0.0, 4.0, -2.0], [1.0, 6.0, -3.0], [0.5, 5.0, -1.0]], 3.0);
        assert_eq!(serde_json::to_string(&built).expect("serialize"), GOLDEN);
        let loaded: ValidRegion = serde_json::from_str(GOLDEN).expect("deserialize");
        assert_eq!(loaded.boxes, built.boxes);
        assert_eq!(loaded.boxes[0], [[0.0, 2.0, -1.5], [1.0, 3.0, -0.5]]);
        assert_eq!(loaded, built);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let probe = q(
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-30.0..30.0),
            );
            assert_eq!(loaded.snap(&probe), built.snap(&probe));
            assert_eq!(
                query_bits(&loaded.project(probe)),
                query_bits(&built.project(probe))
            );
        }
    }

    #[test]
    fn malformed_trees_are_rejected_on_load() {
        let node = |left: &str, right: &str| {
            format!(r#"{{"point":[0,0,0],"axis":0,"left":{left},"right":{right}}}"#)
        };
        let region = |nodes: &[String], root: &str| {
            format!(
                r#"{{"nodes":[{}],"root":{root},"scales":[1,1,1],"threshold":1}}"#,
                nodes.join(",")
            )
        };
        let leaf = node("null", "null");
        let ok = region(&[node("1", "null"), leaf.clone()], "0");
        assert!(serde_json::from_str::<ValidRegion>(&ok).is_ok());
        let chain: Vec<String> = (1..=MAX_DEPTH)
            .map(|c| node(&c.to_string(), "null"))
            .chain([leaf.clone()])
            .collect();
        for bad in [
            region(&[], "null"),
            region(std::slice::from_ref(&leaf), "null"),
            region(std::slice::from_ref(&leaf), "1"),
            region(&[node("0", "null")], "0"),
            region(&[leaf.clone(), node("0", "null")], "1"),
            region(&[node("2", "null"), leaf.clone()], "0"),
            region(
                &[r#"{"point":[0,0,0],"axis":3,"left":null,"right":null}"#.into()],
                "0",
            ),
            region(&chain, "0"),
        ] {
            let err = serde_json::from_str::<ValidRegion>(&bad).expect_err(&bad);
            assert!(err.to_string().contains("valid region"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "needs training points")]
    fn empty_rejected() {
        let _ = ValidRegion::build(&[], 3.0);
    }

    proptest! {
        /// The box-bounded search refines all three references: it finds
        /// the same point index as the plane-pruned walk, its projection is
        /// bit-for-bit what the two-search form returns, and the point it
        /// finds is at the brute-force minimum distance. Queries cover
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
                let (plane_d2, plane) = r.nearest_plane(norm);
                prop_assert_eq!(nearest, plane, "query {:?}: box vs plane walk", query);
                prop_assert_eq!(d2.to_bits(), plane_d2.to_bits());
                let brute = brute_min_d2(&r, &pts, norm);
                prop_assert_eq!(d2.to_bits(), brute.to_bits(),
                    "query {:?}: kd {} vs brute {}", query, d2, brute);
                let i = nearest.expect("non-empty tree");
                prop_assert_eq!(dist2(r.tree.nodes[i].point, norm).to_bits(), brute.to_bits());
                prop_assert_eq!(r.contains(&query), brute.sqrt() <= r.tree.threshold);
                let snapped = r.snap(&query);
                prop_assert_eq!(snapped.is_none(), r.contains(&query));
                if let Some(s) = snapped {
                    prop_assert_eq!(s, i);
                    prop_assert_eq!(query_bits(&r.point(s)), query_bits(&fast));
                }
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
            let (d, _) = r.tree.two_nearest(norm);
            // Brute force in the same normalized space.
            let brute = brute_min_d2(&r, &pts, norm).sqrt();
            prop_assert!((d - brute).abs() < 1e-9, "kd {d} vs brute {brute}");
        }
    }
}
