//! 8-bit grayscale frame buffer.

/// A grayscale image with row-major `u8` pixels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayFrame {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl GrayFrame {
    /// Creates a frame filled with `value`.
    pub fn filled(width: u32, height: u32, value: u8) -> Self {
        GrayFrame {
            width,
            height,
            data: vec![value; (width * height) as usize],
        }
    }

    /// Creates a black frame.
    pub fn black(width: u32, height: u32) -> Self {
        Self::filled(width, height, 0)
    }

    /// Frame width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the frame has zero pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw pixel slice (row-major).
    #[inline]
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw pixel slice.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Pixel value at `(x, y)`; panics out of bounds in debug builds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.data[(y * self.width + x) as usize]
    }

    /// Sets the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        debug_assert!(x < self.width && y < self.height);
        self.data[(y * self.width + x) as usize] = v;
    }

    /// Absolute per-pixel difference `|self - other|`.
    ///
    /// This is the raw material for background subtraction; panics if
    /// the shapes differ.
    pub fn abs_diff(&self, other: &GrayFrame) -> GrayFrame {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        GrayFrame {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a.abs_diff(b))
                .collect(),
        }
    }

    /// Mean pixel intensity (0 for an empty frame).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&p| p as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Renders the frame as ASCII art (for debugging small frames).
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let mut s = String::with_capacity((self.width as usize + 1) * self.height as usize);
        for y in 0..self.height {
            for x in 0..self.width {
                let v = self.get(x, y) as usize * (RAMP.len() - 1) / 255;
                s.push(RAMP[v] as char);
            }
            s.push('\n');
        }
        s
    }
}

/// A binary mask with the same layout as a frame (true = foreground).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    width: u32,
    height: u32,
    data: Vec<bool>,
}

impl Mask {
    /// All-false mask.
    pub fn empty(width: u32, height: u32) -> Self {
        Mask {
            width,
            height,
            data: vec![false; (width * height) as usize],
        }
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Value at `(x, y)`.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> bool {
        debug_assert!(x < self.width && y < self.height);
        self.data[(y * self.width + x) as usize]
    }

    /// Sets the value at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: bool) {
        debug_assert!(x < self.width && y < self.height);
        self.data[(y * self.width + x) as usize] = v;
    }

    /// Number of `true` pixels.
    pub fn count(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }

    /// Raw slice (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[bool] {
        &self.data
    }

    /// Mutable raw slice (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [bool] {
        &mut self.data
    }

    /// Morphological 3x3 majority filter: a pixel survives iff at least
    /// `min_neighbors` of its 8-neighborhood (plus itself) are set.
    /// Cleans salt-and-pepper noise out of threshold masks.
    pub fn majority_filter(&self, min_neighbors: u32) -> Mask {
        let mut out = Mask::empty(self.width, self.height);
        self.majority_filter_into(min_neighbors, &mut out);
        out
    }

    /// [`majority_filter`](Self::majority_filter) into `out`, which is
    /// reshaped to this mask's size if it differs and otherwise reused
    /// without allocating.
    ///
    /// Implemented as a separable box count — vertical 3-row column sums,
    /// then a horizontal 3-wide window — so each pixel costs O(1) work
    /// instead of 9 neighborhood reads, which matters because this runs
    /// twice per video frame. The column sums of one run of a row live in
    /// a stack buffer with a zero column on either side, so the window
    /// needs no edge cases and the filter allocates nothing.
    pub(crate) fn majority_filter_into(&self, min_neighbors: u32, out: &mut Mask) {
        if (out.width, out.height) != (self.width, self.height) {
            *out = Mask::empty(self.width, self.height);
        }
        let w = self.width as usize;
        if w == 0 || self.height == 0 {
            return;
        }
        let need = min_neighbors as u8;
        let row = |y: usize| &self.data[y * w..(y + 1) * w];
        let occupied = |y: usize| row(y).iter().fold(false, |any, &b| any | b);
        let h = self.height as usize;
        // Occupancy of rows y-1, y and y+1 (false past the edges).
        let (mut above, mut here) = (false, occupied(0));
        let mut col = [0u8; FILTER_RUN + 2];
        for (y, out_row) in out.data.chunks_exact_mut(w).enumerate() {
            let below = y + 1 < h && occupied(y + 1);
            // With no set pixel in rows y-1..=y+1 every count is 0, so a
            // threshold of at least 1 leaves the whole output row false.
            if need >= 1 && !(above | here | below) {
                out_row.fill(false);
            } else {
                let rows = [y.checked_sub(1), Some(y), (y + 1 < h).then_some(y + 1)];
                for (run, out_run) in out_row.chunks_mut(FILTER_RUN).enumerate() {
                    // col[j] is the column sum of x = x0 - 1 + j.
                    let x0 = run * FILTER_RUN;
                    let lo = x0.saturating_sub(1);
                    let hi = (x0 + out_run.len() + 1).min(w);
                    let sums = &mut col[lo + 1 - x0..hi + 1 - x0];
                    sums.fill(0);
                    for r in rows.into_iter().flatten() {
                        for (c, &b) in sums.iter_mut().zip(&row(r)[lo..hi]) {
                            *c += b as u8;
                        }
                    }
                    col[0] *= (x0 > 0) as u8;
                    col[out_run.len() + 1] *= (x0 + out_run.len() < w) as u8;
                    for (o, t) in out_run.iter_mut().zip(col.windows(3)) {
                        *o = t[0] + t[1] + t[2] >= need;
                    }
                }
            }
            (above, here) = (here, below);
        }
    }
}

/// Columns per run of [`Mask::majority_filter_into`]'s row pass.
const FILTER_RUN: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_get_set() {
        let mut f = GrayFrame::black(4, 3);
        assert_eq!(f.width(), 4);
        assert_eq!(f.height(), 3);
        assert_eq!(f.len(), 12);
        f.set(2, 1, 200);
        assert_eq!(f.get(2, 1), 200);
        assert_eq!(f.get(0, 0), 0);
    }

    #[test]
    fn abs_diff_symmetry() {
        let mut a = GrayFrame::filled(2, 2, 100);
        let b = GrayFrame::filled(2, 2, 130);
        a.set(0, 0, 180);
        let d1 = a.abs_diff(&b);
        let d2 = b.abs_diff(&a);
        assert_eq!(d1, d2);
        assert_eq!(d1.get(0, 0), 50);
        assert_eq!(d1.get(1, 1), 30);
    }

    #[test]
    fn mean_intensity() {
        let mut f = GrayFrame::filled(2, 1, 10);
        f.set(1, 0, 30);
        assert_eq!(f.mean(), 20.0);
    }

    #[test]
    fn ascii_rendering_dimensions() {
        let f = GrayFrame::filled(3, 2, 255);
        let s = f.to_ascii();
        assert_eq!(s.lines().count(), 2);
        assert!(s.lines().all(|l| l.chars().count() == 3));
        assert!(s.contains('@'));
    }

    #[test]
    fn mask_count_and_access() {
        let mut m = Mask::empty(3, 3);
        assert_eq!(m.count(), 0);
        m.set(1, 1, true);
        m.set(2, 0, true);
        assert_eq!(m.count(), 2);
        assert!(m.get(1, 1));
        assert!(!m.get(0, 0));
    }

    #[test]
    fn majority_filter_removes_isolated_pixels() {
        let mut m = Mask::empty(5, 5);
        m.set(2, 2, true); // isolated
        let cleaned = m.majority_filter(3);
        assert_eq!(cleaned.count(), 0);
    }

    #[test]
    fn majority_filter_matches_the_definition_on_thin_frames() {
        let mut rng = tsvr_sim::Pcg32::seeded(0xf117);
        for (w, h) in [
            (1, 1),
            (1, 7),
            (9, 1),
            (2, 2),
            (2, 5),
            (6, 3),
            (11, 8),
            (0, 3),
            (3, 0),
            (1, 17),
            (23, 1),
            (40, 30),
        ] {
            for dense in [true, false] {
                let mut m = Mask::empty(w, h);
                if dense {
                    for b in m.as_mut_slice() {
                        *b = rng.next_f64() < 0.6;
                    }
                } else if w > 0 && h > 0 {
                    // Sparse: a few specks and a block; most rows and
                    // row triples stay empty, so the filter skips them.
                    for _ in 0..3 {
                        m.set(rng.uniform_u32(w), rng.uniform_u32(h), true);
                    }
                    let (x0, y0) = (rng.uniform_u32(w), rng.uniform_u32(h));
                    for y in y0..(y0 + 3).min(h) {
                        for x in x0..(x0 + 4).min(w) {
                            m.set(x, y, true);
                        }
                    }
                }
                for need in 0..=10 {
                    let out = m.majority_filter(need);
                    for y in 0..h {
                        for x in 0..w {
                            let mut n = 0;
                            for ny in y.saturating_sub(1)..(y + 2).min(h) {
                                for nx in x.saturating_sub(1)..(x + 2).min(w) {
                                    n += m.get(nx, ny) as u32;
                                }
                            }
                            assert_eq!(
                                out.get(x, y),
                                n >= need,
                                "{w}x{h} need {need} at ({x}, {y})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn majority_filter_into_reuses_a_dirty_buffer_across_runs() {
        // Rows wider than one stack run, and an output buffer holding a
        // previous frame's mask (or another shape) that must not leak.
        let mut rng = tsvr_sim::Pcg32::seeded(0x3a1);
        let mut out = Mask::empty(3, 3);
        for (w, h) in [(1030, 4), (513, 3), (512, 2), (1025, 1), (700, 5), (700, 5)] {
            let mut m = Mask::empty(w, h);
            for b in m.as_mut_slice() {
                *b = rng.next_f64() < 0.3;
            }
            for need in [0, 1, 4, 9] {
                out.as_mut_slice().fill(true);
                m.majority_filter_into(need, &mut out);
                assert_eq!((out.width(), out.height()), (w, h));
                for y in 0..h {
                    for x in 0..w {
                        let mut n = 0;
                        for ny in y.saturating_sub(1)..(y + 2).min(h) {
                            for nx in x.saturating_sub(1)..(x + 2).min(w) {
                                n += m.get(nx, ny) as u32;
                            }
                        }
                        assert_eq!(
                            out.get(x, y),
                            n >= need,
                            "{w}x{h} need {need} at ({x}, {y})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn majority_filter_keeps_solid_regions() {
        let mut m = Mask::empty(5, 5);
        for y in 1..4 {
            for x in 1..4 {
                m.set(x, y, true);
            }
        }
        let cleaned = m.majority_filter(4);
        // The 3x3 block survives (center has 9 neighbors, corners 4).
        assert!(cleaned.get(2, 2));
        assert!(cleaned.count() >= 5, "count = {}", cleaned.count());
    }
}
