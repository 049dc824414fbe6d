//! 2D-mesh topology, coordinates and XY routing.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A router coordinate on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
}

impl Coord {
    /// Construct a coordinate.
    pub const fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Router port directions. `Local` is the node-attachment port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Toward decreasing y.
    North,
    /// Toward increasing x.
    East,
    /// Toward increasing y.
    South,
    /// Toward decreasing x.
    West,
    /// The local (ejection/injection) port.
    Local,
}

impl Direction {
    /// All five directions, in port-index order.
    pub const ALL: [Direction; 5] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::Local,
    ];

    /// Port index (0..5).
    pub const fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }

    /// The opposite direction (`Local` is its own opposite).
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
            Direction::Local => Direction::Local,
        }
    }
}

/// A directed inter-router link, named by the router it exits, the router
/// it enters, and the output port it leaves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkRef {
    /// Router the link exits.
    pub from: Coord,
    /// Router the link enters.
    pub to: Coord,
    /// Output direction at `from`.
    pub dir: Direction,
}

impl fmt::Display for LinkRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{})->({},{}) {:?}",
            self.from.x, self.from.y, self.to.x, self.to.y, self.dir
        )
    }
}

/// A `w × h` 2D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    /// Width (columns).
    pub w: u16,
    /// Height (rows).
    pub h: u16,
}

impl Mesh {
    /// Construct a mesh. Panics on zero dimensions.
    pub fn new(w: u16, h: u16) -> Self {
        assert!(w > 0 && h > 0, "mesh dimensions must be positive");
        Mesh { w, h }
    }

    /// Smallest (most square) mesh with at least `n` routers. Squarer
    /// meshes minimize worst-case XY distance for a given router count.
    pub fn at_least(n: usize) -> Self {
        assert!(n > 0);
        let mut w = 1u16;
        while (w as usize) * (w as usize) < n {
            w += 1;
        }
        let h = (n as u16).div_ceil(w);
        Mesh::new(w, h.max(1))
    }

    /// Number of routers.
    pub fn len(self) -> usize {
        self.w as usize * self.h as usize
    }

    /// True for the degenerate 0-router mesh (cannot be constructed; kept
    /// for API completeness).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Linear router index of a coordinate.
    pub fn index(self, c: Coord) -> usize {
        debug_assert!(self.contains(c));
        c.y as usize * self.w as usize + c.x as usize
    }

    /// Coordinate of a linear router index.
    pub fn coord(self, i: usize) -> Coord {
        Coord::new((i % self.w as usize) as u16, (i / self.w as usize) as u16)
    }

    /// Whether the coordinate is on the mesh.
    pub fn contains(self, c: Coord) -> bool {
        c.x < self.w && c.y < self.h
    }

    /// The neighbor of `c` in direction `d`, if any.
    pub fn neighbor(self, c: Coord, d: Direction) -> Option<Coord> {
        let n = match d {
            Direction::North => Coord::new(c.x, c.y.checked_sub(1)?),
            Direction::South => Coord::new(c.x, c.y + 1),
            Direction::West => Coord::new(c.x.checked_sub(1)?, c.y),
            Direction::East => Coord::new(c.x + 1, c.y),
            Direction::Local => return None,
        };
        self.contains(n).then_some(n)
    }

    /// Dimension-ordered (XY) routing: the output direction a flit at `at`
    /// takes toward `dst`. X is fully resolved before Y; at the destination
    /// the flit ejects through `Local`. XY routing on a mesh is minimal and
    /// deadlock-free, which is why it is the default in FPGA NoCs.
    pub fn xy_route(self, at: Coord, dst: Coord) -> Direction {
        if at.x < dst.x {
            Direction::East
        } else if at.x > dst.x {
            Direction::West
        } else if at.y < dst.y {
            Direction::South
        } else if at.y > dst.y {
            Direction::North
        } else {
            Direction::Local
        }
    }

    /// The route from `src` to `dst`: the directed links a packet crosses,
    /// in order, taking one [`xy_route`](Self::xy_route) step per hop.
    /// This is the only definition of a path on the mesh — the router
    /// takes the same per-hop step, and the latency model, the placement
    /// cost and the heatmap read this route — so every layer charges the
    /// same links. `len()` is the hop count, in O(1).
    pub fn route(self, src: Coord, dst: Coord) -> impl ExactSizeIterator<Item = LinkRef> {
        debug_assert!(self.contains(src) && self.contains(dst));
        let hops = usize::from(src.x.abs_diff(dst.x)) + usize::from(src.y.abs_diff(dst.y));
        let mut at = src;
        (0..hops).map(move |_| {
            let dir = self.xy_route(at, dst);
            let to = self
                .neighbor(at, dir)
                .expect("an XY step stays on the mesh");
            let link = LinkRef { from: at, to, dir };
            at = to;
            link
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_coord_round_trip() {
        let m = Mesh::new(3, 2);
        for i in 0..m.len() {
            assert_eq!(m.index(m.coord(i)), i);
        }
        assert_eq!(m.coord(4), Coord::new(1, 1));
    }

    #[test]
    fn at_least_prefers_square() {
        assert_eq!(Mesh::at_least(1), Mesh::new(1, 1));
        assert_eq!(Mesh::at_least(4), Mesh::new(2, 2));
        assert_eq!(Mesh::at_least(5), Mesh::new(3, 2));
        assert_eq!(Mesh::at_least(9), Mesh::new(3, 3));
        assert_eq!(Mesh::at_least(10), Mesh::new(4, 3));
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = Mesh::new(2, 2);
        let origin = Coord::new(0, 0);
        assert_eq!(m.neighbor(origin, Direction::North), None);
        assert_eq!(m.neighbor(origin, Direction::West), None);
        assert_eq!(m.neighbor(origin, Direction::East), Some(Coord::new(1, 0)));
        assert_eq!(m.neighbor(origin, Direction::South), Some(Coord::new(0, 1)));
        assert_eq!(m.neighbor(origin, Direction::Local), None);
    }

    #[test]
    fn xy_route_resolves_x_first() {
        let m = Mesh::new(4, 4);
        let src = Coord::new(0, 0);
        let dst = Coord::new(2, 3);
        assert_eq!(m.xy_route(src, dst), Direction::East);
        assert_eq!(m.xy_route(Coord::new(2, 0), dst), Direction::South);
        assert_eq!(m.xy_route(dst, dst), Direction::Local);
    }

    #[test]
    fn route_links_join_neighbours_and_end_at_dst() {
        let m = Mesh::new(4, 3);
        for si in 0..m.len() {
            for di in 0..m.len() {
                let (src, dst) = (m.coord(si), m.coord(di));
                let route = m.route(src, dst);
                let hops = route.len();
                let links: Vec<LinkRef> = route.collect();
                assert_eq!(links.len(), hops, "{src}->{dst}");
                // Minimal: one hop per unit of distance.
                let dist = usize::from(src.x.abs_diff(dst.x) + src.y.abs_diff(dst.y));
                assert_eq!(hops, dist, "{src}->{dst}");
                let mut at = src;
                for l in &links {
                    assert_eq!(l.from, at);
                    assert_eq!(m.neighbor(l.from, l.dir), Some(l.to));
                    assert_eq!(l.dir, m.xy_route(l.from, dst));
                    at = l.to;
                }
                assert_eq!(at, dst, "the last link enters dst");
            }
        }
    }

    #[test]
    fn opposite_directions() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
        assert_eq!(Direction::North.opposite(), Direction::South);
        assert_eq!(Direction::Local.opposite(), Direction::Local);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mesh_panics() {
        Mesh::new(0, 3);
    }
}
