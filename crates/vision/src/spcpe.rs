//! Simultaneous Partition and Class Parameter Estimation (two-class
//! variant).
//!
//! The paper's substrate \[20\] segments frames with SPCPE: starting from
//! an initial partition, it alternates between estimating per-class
//! parameters (here: the mean intensity of each class) and reassigning
//! pixels to the class whose model explains them best, until the
//! partition stabilizes. We run it on the background-subtraction
//! difference image, seeded by the threshold mask, which sharpens vehicle
//! boundaries that the fixed threshold blurs.

use crate::frame::{GrayFrame, Mask};

/// Result of a two-class SPCPE run.
#[derive(Debug, Clone)]
pub struct SpcpeResult {
    /// Final foreground partition.
    pub mask: Mask,
    /// Mean difference-intensity of the background class.
    pub bg_mean: f64,
    /// Mean difference-intensity of the foreground class.
    pub fg_mean: f64,
    /// Iterations executed until convergence (or the cap).
    pub iterations: usize,
}

/// Maximum refinement sweeps.
const MAX_ITERS: usize = 12;

/// Runs two-class SPCPE on a difference image, seeded with an initial
/// partition.
///
/// Each sweep: (1) estimate the two class means from the current
/// partition, (2) reassign every pixel to the nearer mean. Stops when a
/// sweep changes no pixels. Degenerates gracefully: if either class is
/// empty the input mask is returned unchanged.
///
/// The sweeps run on a joint `(initial class, value)` histogram rather
/// than on the pixels. After the first reassignment a pixel's class is
/// a function of its value alone, so every later sweep's class sums and
/// changed-pixel count are sums over the 256 values, and the final
/// mask is one lookup-table pass. The class sums are integers below
/// 2^53, which `f64` holds exactly in any summation order, so the means,
/// the iteration count and the mask are bit-identical to sweeping the
/// pixels.
pub fn refine(diff: &GrayFrame, initial: &Mask) -> SpcpeResult {
    let mut mask = Mask::empty(diff.width(), diff.height());
    let (bg_mean, fg_mean, iterations) = refine_into(diff, initial, &mut mask);
    SpcpeResult {
        mask,
        bg_mean,
        fg_mean,
        iterations,
    }
}

/// [`refine`] with the final partition written into `out`, which must
/// have the frame's size; returns `(bg_mean, fg_mean, iterations)`.
/// Allocates nothing, so a caller can reuse one mask across frames.
pub(crate) fn refine_into(diff: &GrayFrame, initial: &Mask, out: &mut Mask) -> (f64, f64, usize) {
    assert_eq!(diff.width(), initial.width());
    assert_eq!(diff.height(), initial.height());
    assert_eq!(out.as_slice().len(), initial.as_slice().len());
    let pixels = diff.pixels();

    // hist[c][v]: pixels of value v in class c of the initial partition.
    let hist = class_histogram(pixels, initial.as_slice());
    // lut[v]: the class every pixel of value v holds after the latest
    // sweep; `None` before the first, while the initial mask decides.
    let mut lut: Option<[bool; 256]> = None;

    let mut bg_mean = 0.0;
    let mut fg_mean = 0.0;
    let mut iterations = 0;

    for it in 0..MAX_ITERS {
        iterations = it + 1;
        // Class parameter estimation.
        let (mut bg_sum, mut bg_n, mut fg_sum, mut fg_n) = (0u64, 0u64, 0u64, 0u64);
        for v in 0..256 {
            let (n0, n1) = (hist[0][v], hist[1][v]);
            let (to_bg, to_fg) = match lut {
                None => (n0, n1),
                Some(l) if l[v] => (0, n0 + n1),
                Some(_) => (n0 + n1, 0),
            };
            bg_sum += v as u64 * to_bg;
            bg_n += to_bg;
            fg_sum += v as u64 * to_fg;
            fg_n += to_fg;
        }
        let mean = |sum: u64, n: u64| if n > 0 { sum as f64 / n as f64 } else { 0.0 };
        if fg_n == 0 || bg_n == 0 {
            // Degenerate partition; nothing to refine.
            apply(lut, diff, initial, out);
            return (mean(bg_sum, bg_n), mean(fg_sum, fg_n), iterations);
        }
        bg_mean = mean(bg_sum, bg_n);
        fg_mean = mean(fg_sum, fg_n);

        // Partition update.
        let mut next = [false; 256];
        let mut changed = 0u64;
        for (v, to_fg) in next.iter_mut().enumerate() {
            let x = v as f64;
            *to_fg = (x - fg_mean).abs() < (x - bg_mean).abs();
            changed += match lut {
                None => hist[!*to_fg as usize][v],
                Some(l) if l[v] != *to_fg => hist[0][v] + hist[1][v],
                Some(_) => 0,
            };
        }
        lut = Some(next);
        if changed == 0 {
            break;
        }
    }

    apply(lut, diff, initial, out);
    (bg_mean, fg_mean, iterations)
}

/// Interleaved sub-histograms in [`class_histogram`].
const SUB_HISTOGRAMS: usize = 4;

/// `hist[c][v]`: the pixels of value `v` in class `c` of `mask`.
///
/// Difference images are mostly long runs of equal small values, so a
/// single counter array would make consecutive increments wait on the
/// same counter. Pixel `i` counts into sub-histogram `i % 4` instead,
/// and the four are summed at the end. A sub-histogram counts at most a
/// quarter of the pixels, which `u32` holds: frame sizes are `u32`.
fn class_histogram(pixels: &[u8], mask: &[bool]) -> [[u64; 256]; 2] {
    let mut sub = [[0u32; 512]; SUB_HISTOGRAMS];
    let pixel_quads = pixels.chunks_exact(SUB_HISTOGRAMS);
    let mask_quads = mask.chunks_exact(SUB_HISTOGRAMS);
    let tail = pixel_quads.remainder().iter().zip(mask_quads.remainder());
    for (ps, fs) in pixel_quads.zip(mask_quads) {
        for ((h, &p), &fg) in sub.iter_mut().zip(ps).zip(fs) {
            h[(fg as usize) << 8 | p as usize] += 1;
        }
    }
    for (&p, &fg) in tail {
        sub[0][(fg as usize) << 8 | p as usize] += 1;
    }
    let mut hist = [[0u64; 256]; 2];
    for h in &sub {
        for (c, counts) in hist.iter_mut().enumerate() {
            for (total, &n) in counts.iter_mut().zip(&h[c << 8..]) {
                *total += n as u64;
            }
        }
    }
    hist
}

/// Writes into `out` the partition a value lookup table assigns to
/// `diff`; the initial mask itself while no sweep has reassigned.
fn apply(lut: Option<[bool; 256]>, diff: &GrayFrame, initial: &Mask, out: &mut Mask) {
    let Some(lut) = lut else {
        out.as_mut_slice().copy_from_slice(initial.as_slice());
        return;
    };
    for (m, &p) in out.as_mut_slice().iter_mut().zip(diff.pixels()) {
        *m = lut[p as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvr_sim::Pcg32;

    /// The per-pixel sweep `refine` replaced: the oracle for its
    /// histogram formulation.
    fn refine_per_pixel(diff: &GrayFrame, initial: &Mask) -> SpcpeResult {
        let pixels = diff.pixels();
        let mut mask = initial.clone();
        let mut bg_mean = 0.0;
        let mut fg_mean = 0.0;
        let mut iterations = 0;
        for it in 0..MAX_ITERS {
            iterations = it + 1;
            let (mut bg_sum, mut bg_n, mut fg_sum, mut fg_n) = (0.0f64, 0usize, 0.0f64, 0usize);
            for (i, &p) in pixels.iter().enumerate() {
                if mask.as_slice()[i] {
                    fg_sum += p as f64;
                    fg_n += 1;
                } else {
                    bg_sum += p as f64;
                    bg_n += 1;
                }
            }
            if fg_n == 0 || bg_n == 0 {
                return SpcpeResult {
                    mask,
                    bg_mean: if bg_n > 0 { bg_sum / bg_n as f64 } else { 0.0 },
                    fg_mean: if fg_n > 0 { fg_sum / fg_n as f64 } else { 0.0 },
                    iterations,
                };
            }
            bg_mean = bg_sum / bg_n as f64;
            fg_mean = fg_sum / fg_n as f64;
            let mut changed = 0usize;
            for (i, &p) in pixels.iter().enumerate() {
                let v = p as f64;
                let to_fg = (v - fg_mean).abs() < (v - bg_mean).abs();
                if mask.as_slice()[i] != to_fg {
                    mask.as_mut_slice()[i] = to_fg;
                    changed += 1;
                }
            }
            if changed == 0 {
                break;
            }
        }
        SpcpeResult {
            mask,
            bg_mean,
            fg_mean,
            iterations,
        }
    }

    fn assert_same(diff: &GrayFrame, initial: &Mask, what: &str) -> SpcpeResult {
        let got = refine(diff, initial);
        let want = refine_per_pixel(diff, initial);
        // The in-place form overwrites whatever a reused buffer held.
        let mut reused = Mask::empty(diff.width(), diff.height());
        for (i, m) in reused.as_mut_slice().iter_mut().enumerate() {
            *m = i % 3 == 0;
        }
        let (bg_mean, fg_mean, iterations) = refine_into(diff, initial, &mut reused);
        assert_eq!(reused, want.mask, "{what}: reused mask");
        assert_eq!(
            (bg_mean.to_bits(), fg_mean.to_bits(), iterations),
            (got.bg_mean.to_bits(), got.fg_mean.to_bits(), got.iterations),
            "{what}: refine_into"
        );
        assert_eq!(got.mask, want.mask, "{what}: mask");
        assert_eq!(
            got.bg_mean.to_bits(),
            want.bg_mean.to_bits(),
            "{what}: bg_mean"
        );
        assert_eq!(
            got.fg_mean.to_bits(),
            want.fg_mean.to_bits(),
            "{what}: fg_mean"
        );
        assert_eq!(got.iterations, want.iterations, "{what}: iterations");
        want
    }

    /// A seeded difference image and seed mask: background residue, a
    /// few bright blocks and a halo, thresholded with random flips — or,
    /// in every eighth case, an all-foreground or all-background mask.
    fn random_case(case: u64, rng: &mut Pcg32) -> (GrayFrame, Mask) {
        let (w, h) = (1 + rng.uniform_u32(48), 1 + rng.uniform_u32(48));
        let noise = 1 + rng.uniform_u32(40);
        let mut diff = GrayFrame::black(w, h);
        for p in diff.pixels_mut() {
            *p = rng.uniform_u32(noise) as u8;
        }
        for _ in 0..rng.uniform_u32(4) {
            let (x0, y0) = (rng.uniform_u32(w), rng.uniform_u32(h));
            let level = rng.uniform_u32(256) as u8;
            for y in y0..(y0 + 1 + rng.uniform_u32(12)).min(h) {
                for x in x0..(x0 + 1 + rng.uniform_u32(16)).min(w) {
                    diff.set(x, y, level.saturating_sub(rng.uniform_u32(30) as u8));
                }
            }
        }
        let threshold = rng.uniform_u32(256) as u8;
        let flip = rng.next_f64() * 0.2;
        let mut mask = Mask::empty(w, h);
        for (m, &p) in mask.as_mut_slice().iter_mut().zip(diff.pixels()) {
            *m = match case % 8 {
                0 => true,
                1 => false,
                _ => (p > threshold) != (rng.next_f64() < flip),
            };
        }
        (diff, mask)
    }

    #[test]
    fn histogram_sweeps_match_per_pixel_sweeps() {
        let mut rng = Pcg32::seeded(0x5bc9e);
        let mut iterations = [0usize; MAX_ITERS + 1];
        for case in 0..512 {
            let (diff, mask) = random_case(case, &mut rng);
            let r = assert_same(&diff, &mask, &format!("case {case}"));
            iterations[r.iterations] += 1;
        }
        // The cases reach past the first sweep, not just the shortcuts.
        assert!(iterations[3..].iter().sum::<usize>() > 0, "{iterations:?}");
    }

    #[test]
    fn split_histogram_counts_every_pixel_once() {
        let mut rng = Pcg32::seeded(0x4157);
        for len in (0..12).chain([255, 1024, 1027]) {
            let pixels: Vec<u8> = (0..len).map(|_| rng.uniform_u32(256) as u8).collect();
            let mask: Vec<bool> = (0..len).map(|_| rng.next_f64() < 0.3).collect();
            let mut want = [[0u64; 256]; 2];
            for (&p, &fg) in pixels.iter().zip(&mask) {
                want[fg as usize][p as usize] += 1;
            }
            assert_eq!(class_histogram(&pixels, &mask), want, "{len} pixels");
        }
    }

    #[test]
    fn histogram_sweeps_match_at_the_iteration_cap() {
        // A bell of values seeded with only the brightest pixel: 2-means
        // crawls toward the centre and is still moving at MAX_ITERS.
        let mut values = Vec::new();
        for v in 0..=255u8 {
            let z = (v as f64 - 127.5) / 14.0;
            let count = 1 + (300.0 * (-z * z / 2.0).exp()) as usize;
            values.extend(std::iter::repeat_n(v, count));
        }
        let mut diff = GrayFrame::black(values.len() as u32, 1);
        diff.pixels_mut().copy_from_slice(&values);
        let mut mask = Mask::empty(values.len() as u32, 1);
        for (m, &v) in mask.as_mut_slice().iter_mut().zip(&values) {
            *m = v == 255;
        }
        let r = assert_same(&diff, &mask, "iteration cap");
        assert_eq!(r.iterations, MAX_ITERS);
        // Still changing: one more sweep would move pixels.
        assert_ne!(refine_per_pixel(&diff, &r.mask).iterations, 1);
    }

    #[test]
    fn histogram_sweeps_match_on_degenerate_partitions() {
        let diff = GrayFrame::filled(5, 3, 9);
        let mut full = Mask::empty(5, 3);
        full.as_mut_slice().fill(true);
        assert_same(&diff, &full, "all foreground");
        assert_same(&diff, &Mask::empty(5, 3), "all background");
        // Two classes at first, but every value sides with one mean.
        let diff = GrayFrame::filled(4, 1, 10);
        let mut one = Mask::empty(4, 1);
        one.set(0, 0, true);
        assert_same(&diff, &one, "collapses after a sweep");
        assert_same(&GrayFrame::black(0, 0), &Mask::empty(0, 0), "empty frame");
    }

    /// Difference image: near-zero background with an 80-level block,
    /// plus a smeared boundary the threshold mask gets wrong.
    fn scene() -> (GrayFrame, Mask) {
        let mut diff = GrayFrame::black(24, 24);
        for y in 0..24 {
            for x in 0..24 {
                // Deterministic small background residue 0..6.
                diff.set(x, y, ((x * 7 + y * 13) % 7) as u8);
            }
        }
        for y in 8..16 {
            for x in 6..18 {
                diff.set(x, y, 80);
            }
        }
        // Halo of intermediate values around the block.
        for x in 5..19 {
            diff.set(x, 7, 45);
            diff.set(x, 16, 45);
        }
        // Initial mask from a crude threshold at 50: misses the halo.
        let mut mask = Mask::empty(24, 24);
        for y in 0..24 {
            for x in 0..24 {
                mask.set(x, y, diff.get(x, y) > 50);
            }
        }
        (diff, mask)
    }

    #[test]
    fn refine_recovers_halo_pixels() {
        let (diff, initial) = scene();
        let before = initial.count();
        let r = refine(&diff, &initial);
        // Halo (45) is closer to fg mean (~80) than bg mean (~3), so it
        // should join the foreground.
        assert!(r.mask.count() > before, "{} <= {before}", r.mask.count());
        assert!(r.mask.get(10, 7));
        assert!(r.mask.get(10, 16));
    }

    #[test]
    fn class_means_are_separated() {
        let (diff, initial) = scene();
        let r = refine(&diff, &initial);
        assert!(r.fg_mean > 40.0, "fg {}", r.fg_mean);
        assert!(r.bg_mean < 10.0, "bg {}", r.bg_mean);
    }

    #[test]
    fn converges_and_is_idempotent() {
        let (diff, initial) = scene();
        let r1 = refine(&diff, &initial);
        assert!(r1.iterations <= MAX_ITERS);
        let r2 = refine(&diff, &r1.mask);
        assert_eq!(r1.mask, r2.mask, "second refinement changed the mask");
    }

    #[test]
    fn empty_initial_mask_is_returned_unchanged() {
        let diff = GrayFrame::filled(8, 8, 5);
        let m = Mask::empty(8, 8);
        let r = refine(&diff, &m);
        assert_eq!(r.mask.count(), 0);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn full_initial_mask_is_returned_unchanged() {
        let diff = GrayFrame::filled(8, 8, 200);
        let mut m = Mask::empty(8, 8);
        for i in 0..64 {
            m.as_mut_slice()[i] = true;
        }
        let r = refine(&diff, &m);
        assert_eq!(r.mask.count(), 64);
    }

    #[test]
    fn background_noise_does_not_join_foreground() {
        let (diff, initial) = scene();
        let r = refine(&diff, &initial);
        // Distant background pixels stay background.
        assert!(!r.mask.get(1, 1));
        assert!(!r.mask.get(22, 22));
    }
}
