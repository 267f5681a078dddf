//! Sliding-wire-window address math (paper §3.1.1).
//!
//! The SWW holds a contiguous, sliding range of wire addresses. It is
//! logically split in half: whenever the output-wire frontier crosses the
//! top of the current range, the window advances by half its capacity.
//! Because renaming makes output addresses sequential, the window
//! position is a *pure function of the instruction index* — which is
//! what lets the compiler decide statically whether each operand read
//! hits the SWW or must stream in through the OoRW queue.
//!
//! This module is the single source of truth for that math; the
//! compiler's ESW/OoR passes, the functional executor, and the timing
//! simulator all share it.

/// Window geometry for a given SWW capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowModel {
    sww_wires: u32,
    half: u32,
}

impl WindowModel {
    /// Creates a model for an SWW holding `sww_wires` wire labels.
    ///
    /// # Panics
    ///
    /// Panics if `sww_wires < 2` (the window must be splittable in half).
    pub fn new(sww_wires: u32) -> WindowModel {
        assert!(sww_wires >= 2, "SWW must hold at least 2 wires");
        WindowModel { sww_wires, half: sww_wires / 2 }
    }

    /// Creates a model from an SWW byte capacity (16 B per wire label).
    pub fn from_bytes(sww_bytes: usize) -> WindowModel {
        WindowModel::new((sww_bytes / 16).max(2) as u32)
    }

    /// Number of wire labels the SWW holds.
    #[inline]
    pub fn sww_wires(&self) -> u32 {
        self.sww_wires
    }

    /// The slide granularity (half the capacity).
    #[inline]
    pub fn half(&self) -> u32 {
        self.half
    }

    /// The window base when the output frontier is at `frontier` (the
    /// address currently being written). The window is `[base,
    /// base + sww_wires)` and bases advance in half-window steps.
    #[inline]
    pub fn base_for_frontier(&self, frontier: u32) -> u32 {
        if frontier < self.sww_wires {
            0
        } else {
            // Smallest multiple of `half` with frontier < base + n.
            let over = frontier - self.sww_wires + 1;
            over.div_ceil(self.half) * self.half
        }
    }

    /// Whether reading `addr` hits the SWW when the frontier is at
    /// `frontier` (reads never exceed the frontier in a renamed program).
    #[inline]
    pub fn in_window(&self, addr: u32, frontier: u32) -> bool {
        addr >= self.base_for_frontier(frontier)
    }

    /// The physical SWW slot an address maps to (no tags — the window
    /// contract guarantees non-interference).
    #[inline]
    pub fn slot(&self, addr: u32) -> u32 {
        addr % self.sww_wires
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_starts_at_zero() {
        let w = WindowModel::new(8);
        for frontier in 0..8 {
            assert_eq!(w.base_for_frontier(frontier), 0, "frontier {frontier}");
        }
    }

    #[test]
    fn window_slides_in_half_steps() {
        let w = WindowModel::new(8);
        // frontier 8 exceeds [0,8): base moves to 4.
        assert_eq!(w.base_for_frontier(8), 4);
        assert_eq!(w.base_for_frontier(11), 4);
        // frontier 12 exceeds [4,12): base moves to 8.
        assert_eq!(w.base_for_frontier(12), 8);
        assert_eq!(w.base_for_frontier(100), 96); // smallest base with 100 < base+8
    }

    #[test]
    fn frontier_always_in_window() {
        let w = WindowModel::new(16);
        for frontier in 0..200 {
            let base = w.base_for_frontier(frontier);
            assert!(frontier >= base, "frontier {frontier} below base {base}");
            assert!(frontier < base + 16, "frontier {frontier} above window");
            assert_eq!(base % 8, 0, "base aligned to half-window");
        }
    }

    #[test]
    fn in_window_respects_base() {
        let w = WindowModel::new(8);
        assert!(w.in_window(7, 9)); // base 4
        assert!(w.in_window(4, 9));
        assert!(!w.in_window(3, 9));
    }

    #[test]
    fn bases_are_monotonic() {
        let w = WindowModel::new(32);
        let mut prev = 0;
        for frontier in 0..1000 {
            let base = w.base_for_frontier(frontier);
            assert!(base >= prev);
            prev = base;
        }
    }

    #[test]
    fn from_bytes_uses_16_byte_labels() {
        assert_eq!(WindowModel::from_bytes(2 * 1024 * 1024).sww_wires(), 131_072);
        assert_eq!(WindowModel::from_bytes(2 * 1024 * 1024).half(), 65_536);
    }

    #[test]
    fn slots_wrap() {
        let w = WindowModel::new(8);
        assert_eq!(w.slot(3), 3);
        assert_eq!(w.slot(11), 3);
    }
}
