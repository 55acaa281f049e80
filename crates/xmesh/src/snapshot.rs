//! Per-node counter snapshots and hot-spot detection.

use serde::{Deserialize, Serialize};

/// One node's gauges, as fractions in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NodeCounters {
    /// Memory-controller (Zbox) busy fraction.
    pub zbox_util: f64,
    /// Mean utilization of the node's IP links.
    pub ip_util: f64,
    /// I/O port utilization.
    pub io_util: f64,
}

/// A point-in-time grid of per-node counters over a `cols × rows` mesh.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeshSnapshot {
    cols: usize,
    rows: usize,
    nodes: Vec<NodeCounters>,
}

impl MeshSnapshot {
    /// An all-zero snapshot.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "empty mesh");
        MeshSnapshot {
            cols,
            rows,
            nodes: vec![NodeCounters::default(); cols * rows],
        }
    }

    /// Grid width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the mesh has no nodes (never true; see [`MeshSnapshot::new`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Set node `i`'s counters.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, counters: NodeCounters) {
        self.nodes[i] = counters;
    }

    /// Node `i`'s counters.
    pub fn get(&self, i: usize) -> NodeCounters {
        self.nodes[i]
    }
}

/// The result of hot-spot detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotSpotReport {
    /// Nodes whose Zbox utilization dominates the rest.
    pub hot_nodes: Vec<usize>,
    /// Mean Zbox utilization of the non-hot nodes.
    pub background_zbox: f64,
}

/// Detect hot-spot traffic the way the paper's §6 does with Xmesh: a node
/// is hot when its Zbox utilization is both substantial in absolute terms
/// (> 25%) and far above the remaining nodes' mean (> 4×).
pub fn detect_hot_spots(snap: &MeshSnapshot) -> HotSpotReport {
    let n = snap.len();
    let mut hot = Vec::new();
    for i in 0..n {
        let me = snap.get(i).zbox_util;
        if me < 0.25 {
            continue;
        }
        let others: f64 = (0..n)
            .filter(|&j| j != i)
            .map(|j| snap.get(j).zbox_util)
            .sum::<f64>()
            / (n - 1).max(1) as f64;
        if me > 4.0 * others.max(0.01) {
            hot.push(i);
        }
    }
    let background: Vec<f64> = (0..n)
        .filter(|i| !hot.contains(i))
        .map(|i| snap.get(i).zbox_util)
        .collect();
    HotSpotReport {
        hot_nodes: hot,
        background_zbox: if background.is_empty() {
            0.0
        } else {
            background.iter().sum::<f64>() / background.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_accessors() {
        let mut s = MeshSnapshot::new(4, 2);
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        s.set(
            3,
            NodeCounters {
                zbox_util: 0.5,
                ip_util: 0.25,
                io_util: 0.1,
            },
        );
        assert_eq!(s.get(3).zbox_util, 0.5);
    }

    #[test]
    fn hot_spot_detected_like_fig27() {
        // The paper: node 0 at 53%, everything else much lower.
        let mut s = MeshSnapshot::new(4, 4);
        for i in 0..16 {
            s.set(
                i,
                NodeCounters {
                    zbox_util: 0.04,
                    ip_util: 0.1,
                    io_util: 0.0,
                },
            );
        }
        s.set(
            0,
            NodeCounters {
                zbox_util: 0.53,
                ip_util: 0.4,
                io_util: 0.0,
            },
        );
        let r = detect_hot_spots(&s);
        assert_eq!(r.hot_nodes, vec![0]);
        assert!((r.background_zbox - 0.04).abs() < 1e-12);
    }

    #[test]
    fn uniform_load_is_not_a_hot_spot() {
        let mut s = MeshSnapshot::new(4, 4);
        for i in 0..16 {
            s.set(
                i,
                NodeCounters {
                    zbox_util: 0.5,
                    ip_util: 0.5,
                    io_util: 0.0,
                },
            );
        }
        assert!(detect_hot_spots(&s).hot_nodes.is_empty());
    }

    #[test]
    fn low_absolute_utilization_is_ignored() {
        let mut s = MeshSnapshot::new(2, 2);
        s.set(
            1,
            NodeCounters {
                zbox_util: 0.2, // relatively dominant but absolutely small
                ip_util: 0.0,
                io_util: 0.0,
            },
        );
        assert!(detect_hot_spots(&s).hot_nodes.is_empty());
    }
}
