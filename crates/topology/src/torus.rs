//! The GS1280's 2-D torus fabric (paper §2, Fig. 3).

use serde::{Deserialize, Serialize};

use crate::ids::{Coord, Direction, LinkClass, NodeId, Port};
use crate::Topology;

/// A `cols × rows` 2-D torus of EV7 routers, one CPU per node.
///
/// Node ids are assigned row-major: node `y * cols + x` sits at column `x`,
/// row `y`. Every node has an East, West, North and South port. For
/// `rows == 2` the North and South ports of a node reach the *same*
/// neighbor — the "redundant North–South connections" the paper's shuffle
/// rewiring (§4.1) repurposes. Likewise `cols == 2` yields redundant
/// East–West links. Degenerate 1-wide dimensions get no links in that
/// dimension.
///
/// Link classes model the GS1280 packaging (used to reproduce Fig. 13):
///
/// * vertical links inside a dual-CPU module (rows `2m ↔ 2m+1`) are
///   [`LinkClass::Module`];
/// * other non-wrap links are [`LinkClass::Board`];
/// * wrap-around links are [`LinkClass::Cable`].
///
/// # Examples
///
/// ```
/// use alphasim_topology::{Torus2D, Topology, NodeId};
/// let t = Torus2D::new(4, 4); // the paper's 16-CPU machine
/// assert_eq!(t.node_count(), 16);
/// assert_eq!(t.ports(NodeId::new(0)).len(), 4);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Torus2D {
    cols: usize,
    rows: usize,
    ports: Vec<Vec<Port>>,
}

impl Torus2D {
    /// A torus with `cols` columns and `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "torus dimensions must be positive");
        let mut torus = Torus2D {
            cols,
            rows,
            ports: Vec::new(),
        };
        torus.ports = (0..cols * rows)
            .map(|i| torus.build_ports(NodeId::new(i)))
            .collect();
        torus
    }

    /// The standard configuration for `cpus` processors, matching the
    /// paper's machine sizes: 4 → 2×2, 8 → 4×2, 16 → 4×4, 32 → 8×4,
    /// 64 → 8×8, plus the projected larger builds 128 → 16×8 and
    /// 256 → 16×16 (the paper's §7 scaling discussion).
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is not one of the supported machine sizes;
    /// [`try_for_cpus`](Self::try_for_cpus) is the checked form.
    pub fn for_cpus(cpus: usize) -> Self {
        Self::try_for_cpus(cpus).unwrap_or_else(|| panic!("unsupported GS1280 size: {cpus} CPUs"))
    }

    /// The standard configuration for `cpus` processors (see
    /// [`for_cpus`](Self::for_cpus)), or `None` if `cpus` is not one of the
    /// supported machine sizes.
    pub fn try_for_cpus(cpus: usize) -> Option<Self> {
        let (cols, rows) = match cpus {
            2 => (2, 1),
            4 => (2, 2),
            8 => (4, 2),
            16 => (4, 4),
            32 => (8, 4),
            64 => (8, 8),
            128 => (16, 8),
            256 => (16, 16),
            _ => return None,
        };
        Some(Torus2D::new(cols, rows))
    }

    /// Number of columns (East–West ring length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows (North–South ring length).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The node at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn node_at(&self, coord: Coord) -> NodeId {
        let (x, y) = (coord.x as usize, coord.y as usize);
        assert!(x < self.cols && y < self.rows, "coordinate off-grid");
        NodeId::new(y * self.cols + x)
    }

    /// The coordinate of a node.
    pub fn coord_of(&self, node: NodeId) -> Coord {
        let i = node.index();
        assert!(i < self.cols * self.rows, "node out of range");
        Coord::new(i % self.cols, i / self.cols)
    }

    /// Minimal hop distance between two nodes (torus metric).
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> usize {
        let ca = self.coord_of(a);
        let cb = self.coord_of(b);
        ring_distance(ca.x as usize, cb.x as usize, self.cols)
            + ring_distance(ca.y as usize, cb.y as usize, self.rows)
    }

    /// The other CPU on the same dual-CPU module, if any.
    ///
    /// Modules pair vertically adjacent rows `2m` and `2m+1` of a column;
    /// a machine with an odd row count leaves the last row unpaired.
    pub fn module_partner(&self, node: NodeId) -> Option<NodeId> {
        let c = self.coord_of(node);
        let y = c.y as usize;
        let partner_y = if y.is_multiple_of(2) { y + 1 } else { y - 1 };
        if partner_y < self.rows {
            Some(self.node_at(Coord::new(c.x as usize, partner_y)))
        } else {
            None
        }
    }

    fn vertical_class(&self, y_from: usize, y_to: usize) -> LinkClass {
        // Wrap link?
        let wrap = (y_from + 1) % self.rows == y_to || (y_to + 1) % self.rows == y_from;
        let adjacent = y_from.abs_diff(y_to) == 1;
        if !adjacent && wrap && self.rows > 2 {
            return LinkClass::Cable;
        }
        // Same-module link: rows 2m ↔ 2m+1.
        if y_from.min(y_to).is_multiple_of(2) && y_from.abs_diff(y_to) == 1 {
            LinkClass::Module
        } else {
            LinkClass::Board
        }
    }

    fn horizontal_class(&self, x_from: usize, x_to: usize) -> LinkClass {
        let adjacent = x_from.abs_diff(x_to) == 1;
        if !adjacent && self.cols > 2 {
            LinkClass::Cable
        } else {
            LinkClass::Board
        }
    }

    fn build_ports(&self, node: NodeId) -> Vec<Port> {
        let c = self.coord_of(node);
        let (x, y) = (c.x as usize, c.y as usize);
        let mut ports = Vec::with_capacity(4);
        if self.cols > 1 {
            let east = (x + 1) % self.cols;
            let west = (x + self.cols - 1) % self.cols;
            ports.push(Port::directed(
                self.node_at(Coord::new(east, y)),
                self.horizontal_class(x, east),
                Direction::East,
            ));
            ports.push(Port::directed(
                self.node_at(Coord::new(west, y)),
                self.horizontal_class(x, west),
                Direction::West,
            ));
        }
        if self.rows > 1 {
            let south = (y + 1) % self.rows;
            let north = (y + self.rows - 1) % self.rows;
            ports.push(Port::directed(
                self.node_at(Coord::new(x, north)),
                self.vertical_class(y, north),
                Direction::North,
            ));
            ports.push(Port::directed(
                self.node_at(Coord::new(x, south)),
                self.vertical_class(y, south),
                Direction::South,
            ));
        }
        ports
    }
}

impl Topology for Torus2D {
    fn name(&self) -> String {
        format!("torus-{}x{}", self.cols, self.rows)
    }

    fn node_count(&self) -> usize {
        self.cols * self.rows
    }

    fn ports(&self, node: NodeId) -> &[Port] {
        &self.ports[node.index()]
    }

    fn is_endpoint(&self, _node: NodeId) -> bool {
        true
    }

    fn coord(&self, node: NodeId) -> Option<Coord> {
        Some(self.coord_of(node))
    }
}

/// Distance around a ring of length `len` between positions `a` and `b`.
pub(crate) fn ring_distance(a: usize, b: usize, len: usize) -> usize {
    let d = a.abs_diff(b);
    d.min(len - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coord_roundtrip() {
        let t = Torus2D::new(8, 4);
        for i in 0..32 {
            let n = NodeId::new(i);
            assert_eq!(t.node_at(t.coord_of(n)), n);
        }
    }

    #[test]
    fn every_node_has_four_ports_in_2d() {
        let t = Torus2D::new(4, 4);
        for i in 0..16 {
            assert_eq!(t.ports(NodeId::new(i)).len(), 4);
        }
        assert_eq!(t.link_count(), 64);
    }

    #[test]
    fn redundant_links_when_dimension_is_two() {
        // In a 4x2 torus, North and South of a node both reach the same peer.
        let t = Torus2D::new(4, 2);
        let ports = t.ports(NodeId::new(0));
        let vertical: Vec<_> = ports
            .iter()
            .filter(|p| p.dir.is_some_and(|d| !d.is_horizontal()))
            .collect();
        assert_eq!(vertical.len(), 2);
        assert_eq!(vertical[0].to, vertical[1].to);
        assert_eq!(vertical[0].to, NodeId::new(4));
    }

    #[test]
    fn links_are_symmetric() {
        for (c, r) in [(4, 4), (8, 4), (4, 2), (8, 8), (2, 2)] {
            let t = Torus2D::new(c, r);
            for i in 0..t.node_count() {
                let n = NodeId::new(i);
                for p in t.ports(n) {
                    let back = t
                        .ports(p.to)
                        .iter()
                        .filter(|q| q.to == n && q.class == p.class)
                        .count();
                    assert!(back >= 1, "missing reverse of {n}->{}", p.to);
                }
            }
        }
    }

    #[test]
    fn hop_distance_matches_torus_metric() {
        let t = Torus2D::new(4, 4);
        let n = |x, y| t.node_at(Coord::new(x, y));
        assert_eq!(t.hop_distance(n(0, 0), n(0, 0)), 0);
        assert_eq!(t.hop_distance(n(0, 0), n(3, 0)), 1); // wrap
        assert_eq!(t.hop_distance(n(0, 0), n(2, 2)), 4); // worst case
        assert_eq!(t.hop_distance(n(1, 1), n(3, 3)), 4);
    }

    #[test]
    fn link_classes_follow_packaging() {
        let t = Torus2D::new(4, 4);
        let n = |x, y| t.node_at(Coord::new(x, y));
        let class = |from: NodeId, to: NodeId| {
            t.ports(from)
                .iter()
                .find(|p| p.to == to)
                .expect("link exists")
                .class
        };
        // Rows 0-1 are one module; 1-2 crosses modules; wraps are cables.
        assert_eq!(class(n(0, 0), n(0, 1)), LinkClass::Module);
        assert_eq!(class(n(0, 1), n(0, 2)), LinkClass::Board);
        assert_eq!(class(n(0, 2), n(0, 3)), LinkClass::Module);
        assert_eq!(class(n(0, 0), n(0, 3)), LinkClass::Cable);
        assert_eq!(class(n(0, 0), n(1, 0)), LinkClass::Board);
        assert_eq!(class(n(0, 0), n(3, 0)), LinkClass::Cable);
    }

    #[test]
    fn module_partners_pair_up() {
        let t = Torus2D::new(4, 4);
        for i in 0..16 {
            let n = NodeId::new(i);
            let partner = t.module_partner(n).unwrap();
            assert_eq!(t.module_partner(partner), Some(n));
            assert_ne!(partner, n);
        }
        // Odd row count: last row unpaired.
        let t3 = Torus2D::new(2, 3);
        assert_eq!(t3.module_partner(t3.node_at(Coord::new(0, 2))), None);
    }

    #[test]
    fn for_cpus_matches_paper_shapes() {
        assert_eq!(Torus2D::for_cpus(16).name(), "torus-4x4");
        assert_eq!(Torus2D::for_cpus(32).name(), "torus-8x4");
        assert_eq!(Torus2D::for_cpus(64).name(), "torus-8x8");
        assert_eq!(Torus2D::for_cpus(8).name(), "torus-4x2");
        assert_eq!(
            Torus2D::try_for_cpus(2).map(|t| t.name()),
            Some("torus-2x1".into())
        );
        assert!(Torus2D::try_for_cpus(12).is_none());
    }

    #[test]
    #[should_panic(expected = "unsupported GS1280 size")]
    fn for_cpus_rejects_odd_sizes() {
        let _ = Torus2D::for_cpus(12);
    }

    #[test]
    fn degenerate_single_row_has_no_vertical_links() {
        let t = Torus2D::new(2, 1);
        assert_eq!(t.ports(NodeId::new(0)).len(), 2);
        assert!(t
            .ports(NodeId::new(0))
            .iter()
            .all(|p| p.dir.unwrap().is_horizontal()));
    }

    #[test]
    fn ring_distance_basics() {
        assert_eq!(ring_distance(0, 3, 4), 1);
        assert_eq!(ring_distance(0, 2, 4), 2);
        assert_eq!(ring_distance(1, 1, 4), 0);
        assert_eq!(ring_distance(0, 7, 8), 1);
    }
}
