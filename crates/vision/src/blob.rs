//! Connected-component labeling and blob statistics.
//!
//! Turns a foreground mask into vehicle candidate blobs: 8-connected
//! components above a minimum area, each summarized by its Minimal
//! Bounding Rectangle and centroid — exactly the yellow MBR and red
//! centroid dot of the paper's Fig. 1.

use crate::frame::{GrayFrame, Mask};
use tsvr_sim::{Aabb, Vec2};

/// One connected foreground component.
#[derive(Debug, Clone, PartialEq)]
pub struct Blob {
    /// Pixel count.
    pub area: usize,
    /// Minimal bounding rectangle (inclusive pixel coordinates).
    pub mbr: Aabb,
    /// Centroid of the component's pixels.
    pub centroid: Vec2,
    /// Mean source-image intensity over the component (0 when no source
    /// frame was supplied).
    pub mean_intensity: f64,
}

impl Blob {
    /// MBR width in pixels.
    pub fn width(&self) -> f64 {
        self.mbr.width() + 1.0
    }

    /// MBR height in pixels.
    pub fn height(&self) -> f64 {
        self.mbr.height() + 1.0
    }

    /// Fraction of the MBR covered by component pixels, in (0, 1].
    pub fn fill_ratio(&self) -> f64 {
        self.area as f64 / (self.width() * self.height())
    }
}

/// Extracts 8-connected components with at least `min_area` pixels.
///
/// `intensity` optionally supplies the original frame so blobs can carry
/// mean intensities (used by the PCA classifier).
pub fn extract_blobs(mask: &Mask, min_area: usize, intensity: Option<&GrayFrame>) -> Vec<Blob> {
    let mut labeler = Labeler::default();
    labeler.label(&mut mask.clone(), min_area, intensity);
    labeler.blobs
}

/// Reusable connected-component labeler: [`extract_blobs`] without the
/// per-call allocations, for callers that label frame after frame.
#[derive(Debug, Default)]
pub(crate) struct Labeler {
    stack: Vec<(i64, i64)>,
    blobs: Vec<Blob>,
}

impl Labeler {
    /// Labels `mask` as [`extract_blobs`] does, consuming it: every
    /// foreground pixel is cleared as its component is labeled, so the
    /// mask doubles as the visited set. Returns the blobs, which stay
    /// valid until the next call; once the labeler's buffers have grown
    /// to a clip's largest frame, labeling allocates nothing.
    pub fn label(
        &mut self,
        mask: &mut Mask,
        min_area: usize,
        intensity: Option<&GrayFrame>,
    ) -> &[Blob] {
        self.blobs.clear();
        let w = mask.width() as usize;
        if w == 0 {
            return &self.blobs;
        }
        for y0 in 0..mask.height() as usize {
            // Foreground is sparse: most rows are empty, and a branch-free
            // OR over the row skips them faster than the pixel scan.
            let row = &mask.as_slice()[y0 * w..(y0 + 1) * w];
            if !row.iter().fold(false, |any, &b| any | b) {
                continue;
            }
            for x0 in 0..w {
                if mask.as_slice()[y0 * w + x0] {
                    let seed = (x0 as i64, y0 as i64);
                    let blob = flood(mask, &mut self.stack, seed, min_area, intensity);
                    self.blobs.extend(blob);
                }
            }
        }
        sort_top_left_first(&mut self.blobs);
        &self.blobs
    }

    /// The blobs of the latest [`label`](Self::label) call.
    pub fn blobs(&self) -> &[Blob] {
        &self.blobs
    }
}

/// Labels the 8-connected component of the foreground pixel `seed`,
/// clearing its pixels from `mask`; `None` if it has fewer than
/// `min_area` pixels.
fn flood(
    mask: &mut Mask,
    stack: &mut Vec<(i64, i64)>,
    (x0, y0): (i64, i64),
    min_area: usize,
    intensity: Option<&GrayFrame>,
) -> Option<Blob> {
    let w = mask.width() as i64;
    let h = mask.height() as i64;
    let idx = |x: i64, y: i64| (y * w + x) as usize;
    let fg = mask.as_mut_slice();
    let mut area = 0usize;
    let mut sum = Vec2::ZERO;
    let mut int_sum = 0.0f64;
    let (mut min_x, mut min_y, mut max_x, mut max_y) = (x0, y0, x0, y0);
    fg[idx(x0, y0)] = false;
    stack.push((x0, y0));
    while let Some((x, y)) = stack.pop() {
        area += 1;
        sum = sum + Vec2::new(x as f64, y as f64);
        if let Some(f) = intensity {
            int_sum += f.get(x as u32, y as u32) as f64;
        }
        min_x = min_x.min(x);
        min_y = min_y.min(y);
        max_x = max_x.max(x);
        max_y = max_y.max(y);
        for dy in -1..=1 {
            for dx in -1..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let (nx, ny) = (x + dx, y + dy);
                if nx >= 0 && ny >= 0 && nx < w && ny < h && fg[idx(nx, ny)] {
                    fg[idx(nx, ny)] = false;
                    stack.push((nx, ny));
                }
            }
        }
    }
    (area >= min_area).then(|| Blob {
        area,
        mbr: Aabb::from_corners(
            Vec2::new(min_x as f64, min_y as f64),
            Vec2::new(max_x as f64, max_y as f64),
        ),
        centroid: sum * (1.0 / area as f64),
        mean_intensity: if intensity.is_some() {
            int_sum / area as f64
        } else {
            0.0
        },
    })
}

/// Deterministic order: top-left first (already guaranteed by the scan
/// order, but make the contract explicit).
fn sort_top_left_first(blobs: &mut [Blob]) {
    blobs.sort_by(|a, b| {
        (a.mbr.min.y, a.mbr.min.x)
            .partial_cmp(&(b.mbr.min.y, b.mbr.min.x))
            .unwrap()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_with_rects(rects: &[(u32, u32, u32, u32)]) -> Mask {
        let mut m = Mask::empty(40, 30);
        for &(x0, y0, x1, y1) in rects {
            for y in y0..=y1 {
                for x in x0..=x1 {
                    m.set(x, y, true);
                }
            }
        }
        m
    }

    #[test]
    fn single_rectangle_blob() {
        let m = mask_with_rects(&[(5, 6, 14, 11)]);
        let blobs = extract_blobs(&m, 1, None);
        assert_eq!(blobs.len(), 1);
        let b = &blobs[0];
        assert_eq!(b.area, 60);
        assert_eq!(b.width(), 10.0);
        assert_eq!(b.height(), 6.0);
        assert!((b.centroid.x - 9.5).abs() < 1e-9);
        assert!((b.centroid.y - 8.5).abs() < 1e-9);
        assert!((b.fill_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn separate_rectangles_are_distinct_blobs() {
        let m = mask_with_rects(&[(2, 2, 6, 5), (20, 10, 28, 15)]);
        let blobs = extract_blobs(&m, 1, None);
        assert_eq!(blobs.len(), 2);
        // Order: top-left first.
        assert!(blobs[0].mbr.min.y <= blobs[1].mbr.min.y);
    }

    #[test]
    fn diagonal_touch_merges_with_8_connectivity() {
        let mut m = Mask::empty(10, 10);
        m.set(3, 3, true);
        m.set(4, 4, true); // diagonal neighbor
        let blobs = extract_blobs(&m, 1, None);
        assert_eq!(blobs.len(), 1);
        assert_eq!(blobs[0].area, 2);
    }

    #[test]
    fn min_area_filters_specks() {
        let mut m = mask_with_rects(&[(5, 5, 12, 10)]);
        m.set(30, 20, true); // 1-px speck
        let blobs = extract_blobs(&m, 10, None);
        assert_eq!(blobs.len(), 1);
        assert!(blobs[0].area >= 10);
    }

    #[test]
    fn intensity_mean_computed_from_frame() {
        let m = mask_with_rects(&[(0, 0, 1, 1)]);
        let mut f = GrayFrame::black(40, 30);
        f.set(0, 0, 100);
        f.set(1, 0, 200);
        f.set(0, 1, 100);
        f.set(1, 1, 200);
        let blobs = extract_blobs(&m, 1, Some(&f));
        assert_eq!(blobs[0].mean_intensity, 150.0);
    }

    #[test]
    fn empty_mask_no_blobs() {
        let m = Mask::empty(8, 8);
        assert!(extract_blobs(&m, 1, None).is_empty());
    }

    #[test]
    fn l_shaped_component_is_one_blob() {
        let mut m = Mask::empty(20, 20);
        for x in 2..10 {
            m.set(x, 2, true);
        }
        for y in 2..10 {
            m.set(2, y, true);
        }
        let blobs = extract_blobs(&m, 1, None);
        assert_eq!(blobs.len(), 1);
        assert_eq!(blobs[0].area, 15);
        // Fill ratio well below 1 for an L.
        assert!(blobs[0].fill_ratio() < 0.5);
    }

    /// The pixel-by-pixel scan with a separate visited set that
    /// `extract_blobs` replaced: the oracle for its empty-row skipping
    /// and for labeling in place.
    fn extract_blobs_per_pixel(
        mask: &Mask,
        min_area: usize,
        intensity: Option<&GrayFrame>,
    ) -> Vec<Blob> {
        let (w, h) = (mask.width() as i64, mask.height() as i64);
        let idx = |x: i64, y: i64| (y * w + x) as usize;
        let mut visited = vec![false; mask.as_slice().len()];
        let mut blobs = Vec::new();
        for y0 in 0..h {
            for x0 in 0..w {
                if visited[idx(x0, y0)] || !mask.as_slice()[idx(x0, y0)] {
                    continue;
                }
                let (mut area, mut sum, mut int_sum) = (0usize, Vec2::ZERO, 0.0f64);
                let (mut min, mut max) = ((x0, y0), (x0, y0));
                visited[idx(x0, y0)] = true;
                let mut stack = vec![(x0, y0)];
                while let Some((x, y)) = stack.pop() {
                    area += 1;
                    sum = sum + Vec2::new(x as f64, y as f64);
                    if let Some(f) = intensity {
                        int_sum += f.get(x as u32, y as u32) as f64;
                    }
                    min = (min.0.min(x), min.1.min(y));
                    max = (max.0.max(x), max.1.max(y));
                    for (dx, dy) in (-1..=1).flat_map(|dy| (-1..=1).map(move |dx| (dx, dy))) {
                        let (nx, ny) = (x + dx, y + dy);
                        if (0..w).contains(&nx)
                            && (0..h).contains(&ny)
                            && !visited[idx(nx, ny)]
                            && mask.as_slice()[idx(nx, ny)]
                        {
                            visited[idx(nx, ny)] = true;
                            stack.push((nx, ny));
                        }
                    }
                }
                if area >= min_area {
                    blobs.push(Blob {
                        area,
                        mbr: Aabb::from_corners(
                            Vec2::new(min.0 as f64, min.1 as f64),
                            Vec2::new(max.0 as f64, max.1 as f64),
                        ),
                        centroid: sum * (1.0 / area as f64),
                        mean_intensity: if intensity.is_some() {
                            int_sum / area as f64
                        } else {
                            0.0
                        },
                    });
                }
            }
        }
        sort_top_left_first(&mut blobs);
        blobs
    }

    #[test]
    fn row_skipping_matches_the_per_pixel_scan() {
        let mut rng = tsvr_sim::Pcg32::seeded(0xb10b);
        let mut labeler = Labeler::default();
        let shapes = [(40, 30), (1, 1), (1, 23), (31, 1), (0, 5), (5, 0), (0, 0), (64, 48)];
        for (w, h) in shapes {
            for case in 0..24 {
                let mut m = Mask::empty(w, h);
                if case % 2 == 0 {
                    // Dense: salt-and-pepper at up to 70% cover.
                    let cover = rng.next_f64() * 0.7;
                    for b in m.as_mut_slice() {
                        *b = rng.next_f64() < cover;
                    }
                } else if w > 0 && h > 0 {
                    // Sparse: a few rectangles and specks on empty rows.
                    for _ in 0..rng.uniform_u32(4) {
                        let (x0, y0) = (rng.uniform_u32(w), rng.uniform_u32(h));
                        for y in y0..(y0 + 1 + rng.uniform_u32(9)).min(h) {
                            for x in x0..(x0 + 1 + rng.uniform_u32(14)).min(w) {
                                m.set(x, y, true);
                            }
                        }
                    }
                    for _ in 0..rng.uniform_u32(5) {
                        m.set(rng.uniform_u32(w), rng.uniform_u32(h), true);
                    }
                }
                let mut frame = GrayFrame::black(w, h);
                for p in frame.pixels_mut() {
                    *p = rng.uniform_u32(256) as u8;
                }
                for min_area in [1, 3, 20] {
                    for intensity in [None, Some(&frame)] {
                        let want = extract_blobs_per_pixel(&m, min_area, intensity);
                        let what = format!("{w}x{h} case {case} min_area {min_area}");
                        assert_eq!(extract_blobs(&m, min_area, intensity), want, "{what}");
                        // One labeler reused across every case.
                        let mut consumed = m.clone();
                        let got = labeler.label(&mut consumed, min_area, intensity);
                        assert_eq!(got, &want[..], "{what}: reused labeler");
                        assert_eq!(consumed.count(), 0, "{what}: mask not consumed");
                    }
                }
            }
        }
    }

    #[test]
    fn full_frame_component() {
        let mut m = Mask::empty(6, 6);
        for i in 0..36 {
            m.as_mut_slice()[i] = true;
        }
        let blobs = extract_blobs(&m, 1, None);
        assert_eq!(blobs.len(), 1);
        assert_eq!(blobs[0].area, 36);
    }
}
