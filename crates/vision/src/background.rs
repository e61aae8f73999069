//! Background learning and subtraction (paper §3.1).
//!
//! The authors enhance SPCPE with "a background learning and subtraction
//! method" to isolate vehicle pixels. We reproduce the standard recipe:
//! a per-pixel running-average background model learned over time (only
//! from pixels currently believed to be background, so stopped vehicles
//! do not burn in immediately), thresholded absolute difference, and a
//! majority filter to despeckle the mask.

use crate::frame::{GrayFrame, Mask};
use std::ops::Range;

/// Per-pixel running-average background model.
#[derive(Debug, Clone)]
pub struct BackgroundModel {
    mean: Vec<f64>,
    width: u32,
    height: u32,
    /// Learning rate for background pixels.
    pub alpha: f64,
    /// Foreground threshold in gray levels.
    pub threshold: f64,
}

impl BackgroundModel {
    /// Initializes the model from a first frame (assumed mostly
    /// background).
    pub fn from_frame(frame: &GrayFrame) -> Self {
        BackgroundModel {
            mean: frame.pixels().iter().map(|&p| p as f64).collect(),
            width: frame.width(),
            height: frame.height(),
            alpha: 0.05,
            threshold: 26.0,
        }
    }

    /// Learns from a batch of frames (e.g. an empty-scene warm-up
    /// sequence), updating every pixel.
    pub fn learn(&mut self, frames: &[GrayFrame]) {
        for f in frames {
            assert_eq!(f.width(), self.width);
            assert_eq!(f.height(), self.height);
            for (m, &p) in self.mean.iter_mut().zip(f.pixels()) {
                *m += self.alpha * (p as f64 - *m);
            }
        }
    }

    /// Classifies foreground pixels and selectively updates the model:
    /// background pixels adapt at `alpha`, foreground pixels at
    /// `alpha/20` (so long-stopped vehicles eventually merge into the
    /// background, as real systems do, but not within an event's
    /// duration).
    pub fn subtract_and_update(&mut self, frame: &GrayFrame) -> Mask {
        assert_eq!(frame.width(), self.width);
        assert_eq!(frame.height(), self.height);
        let mut mask = Mask::empty(self.width, self.height);
        let rates = self.rates();
        step_band(
            &mut self.mean,
            frame.pixels(),
            None,
            mask.as_mut_slice(),
            rates,
        );
        mask.majority_filter(4)
    }

    /// The fused, band-parallel equivalent of filling each frame of a
    /// chunk and then, in clip order, calling
    /// [`background`](Self::background) (when `diffs` is given) and
    /// [`subtract_and_update`](Self::subtract_and_update) without its
    /// majority filter.
    ///
    /// `fill(i, rows, out)` must write rows `rows` of frame `i` into
    /// `out`; it fills `frames[i]` band by band. After the call
    /// `frames[i]` holds the whole frame, `diffs[i]` its absolute
    /// difference from the pre-update background estimate and `masks[i]`
    /// its unfiltered foreground mask. Every buffer must have the
    /// model's size, and `diffs` and `masks` one entry per frame; the
    /// model ends in exactly the state the sequential calls leave it in.
    ///
    /// Every pixel's model depends only on that pixel's own history, so
    /// the frame is cut into row bands that run in parallel on the
    /// [`tsvr_par`] runtime. A band fills its rows of one frame and steps
    /// them at once, frame after frame in clip order, so the rows a
    /// worker renders are still in its cache when the model reads them.
    /// Each band writes only its disjoint slices of the buffers, and
    /// every pixel sees the same update sequence as in the sequential
    /// loop, so the result is bit-identical at any thread count. Each
    /// band's update of one frame is timed as a `vision.segment.bg` span.
    pub fn step_chunk<F>(
        &mut self,
        fill: F,
        frames: &mut [GrayFrame],
        diffs: Option<&mut [GrayFrame]>,
        masks: &mut [Mask],
    ) where
        F: Fn(usize, Range<u32>, &mut [u8]) + Sync,
    {
        let diffs = diffs.unwrap_or_default();
        assert_eq!(masks.len(), frames.len());
        assert!(diffs.is_empty() || diffs.len() == frames.len());
        let shape = (self.width, self.height);
        assert!(frames
            .iter()
            .chain(diffs.iter())
            .all(|f| (f.width(), f.height()) == shape));
        assert!(masks.iter().all(|m| (m.width(), m.height()) == shape));
        if self.mean.is_empty() {
            return;
        }
        let (w, h) = (self.width as usize, self.height);
        let bands = tsvr_par::current_threads().max(1) * BANDS_PER_THREAD;
        let band_rows = h.div_ceil(bands as u32);
        let band_len = band_rows as usize * w;
        let rates = self.rates();
        let mut frame_cuts: Vec<_> = frames
            .iter_mut()
            .map(|f| f.pixels_mut().chunks_mut(band_len))
            .collect();
        let mut diff_cuts: Vec<_> = diffs
            .iter_mut()
            .map(|d| d.pixels_mut().chunks_mut(band_len))
            .collect();
        let mut mask_cuts: Vec<_> = masks
            .iter_mut()
            .map(|m| m.as_mut_slice().chunks_mut(band_len))
            .collect();
        let mut bands: Vec<Band> = self
            .mean
            .chunks_mut(band_len)
            .enumerate()
            .map(|(b, mean)| {
                let y0 = b as u32 * band_rows;
                Band {
                    rows: y0..y0 + (mean.len() / w) as u32,
                    mean,
                    frames: frame_cuts.iter_mut().filter_map(Iterator::next).collect(),
                    diffs: diff_cuts.iter_mut().filter_map(Iterator::next).collect(),
                    masks: mask_cuts.iter_mut().filter_map(Iterator::next).collect(),
                }
            })
            .collect();
        tsvr_par::par_for_chunks(&mut bands, 1, |_, run| {
            for band in run {
                band.step(&fill, rates);
            }
        });
    }

    /// Foreground classification without model update.
    pub fn subtract(&self, frame: &GrayFrame) -> Mask {
        assert_eq!(frame.width(), self.width);
        let mut mask = Mask::empty(self.width, self.height);
        for (i, (&p, m)) in frame.pixels().iter().zip(self.mean.iter()).enumerate() {
            if (p as f64 - m).abs() > self.threshold {
                mask.as_mut_slice()[i] = true;
            }
        }
        mask.majority_filter(4)
    }

    /// Current background estimate as a frame.
    pub fn background(&self) -> GrayFrame {
        let mut f = GrayFrame::black(self.width, self.height);
        for (p, &m) in f.pixels_mut().iter_mut().zip(&self.mean) {
            *p = estimate(m);
        }
        f
    }

    fn rates(&self) -> Rates {
        Rates {
            alpha: self.alpha,
            slow: self.alpha / 20.0,
            threshold: self.threshold,
        }
    }
}

/// Row bands per worker thread in [`BackgroundModel::step_chunk`]:
/// a few per worker, so a worker slowed by a noisy neighbour hands the
/// remaining bands to the others.
const BANDS_PER_THREAD: usize = 4;

/// Learning rates and threshold, copied out of the model so bands can
/// share them while each holds a mutable slice of the means.
#[derive(Clone, Copy)]
struct Rates {
    alpha: f64,
    slow: f64,
    threshold: f64,
}

/// One row band of a [`BackgroundModel::step_chunk`] call: the band's
/// rows, and its slice of the model and of every frame, difference image
/// and mask.
struct Band<'a> {
    rows: Range<u32>,
    mean: &'a mut [f64],
    frames: Vec<&'a mut [u8]>,
    diffs: Vec<&'a mut [u8]>,
    masks: Vec<&'a mut [bool]>,
}

impl Band<'_> {
    /// Fills and steps the band's pixels, frame by frame in order.
    fn step<F: Fn(usize, Range<u32>, &mut [u8])>(&mut self, fill: &F, rates: Rates) {
        let mut diffs = self.diffs.iter_mut();
        for (i, (pixels, mask)) in self.frames.iter_mut().zip(&mut self.masks).enumerate() {
            fill(i, self.rows.clone(), pixels);
            let _span = tsvr_obs::span!("vision.segment.bg");
            let diff = diffs.next().map(|d| &mut **d);
            step_band(self.mean, pixels, diff, mask, rates);
        }
    }
}

/// The background estimate of one pixel's running mean.
#[inline]
fn estimate(mean: f64) -> u8 {
    mean.clamp(0.0, 255.0) as u8
}

/// One frame's update of a run of pixels: optionally the difference
/// from the pre-update estimate, then the raw foreground bit and the
/// selective running-mean update, in a single pass.
#[inline]
fn step_band(mean: &mut [f64], pixels: &[u8], diff: Option<&mut [u8]>, fg: &mut [bool], r: Rates) {
    match diff {
        Some(diff) => {
            for (((m, &p), fg), d) in mean.iter_mut().zip(pixels).zip(fg).zip(diff) {
                *d = p.abs_diff(estimate(*m));
                *fg = update(m, p, r);
            }
        }
        None => {
            for ((m, &p), fg) in mean.iter_mut().zip(pixels).zip(fg) {
                *fg = update(m, p, r);
            }
        }
    }
}

/// Classifies one pixel against its running mean and updates the mean:
/// at `alpha` when it is background, at `alpha/20` when foreground.
#[inline]
fn update(mean: &mut f64, p: u8, r: Rates) -> bool {
    let delta = p as f64 - *mean;
    let fg = delta.abs() > r.threshold;
    *mean += if fg { r.slow } else { r.alpha } * delta;
    fg
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvr_sim::Pcg32;

    fn flat(v: u8) -> GrayFrame {
        GrayFrame::filled(32, 32, v)
    }

    fn with_block(base: u8, block: u8) -> GrayFrame {
        let mut f = flat(base);
        for y in 10..20 {
            for x in 8..24 {
                f.set(x, y, block);
            }
        }
        f
    }

    #[test]
    fn clean_background_yields_empty_mask() {
        let mut bg = BackgroundModel::from_frame(&flat(90));
        let m = bg.subtract_and_update(&flat(91));
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn bright_block_detected() {
        let mut bg = BackgroundModel::from_frame(&flat(90));
        let m = bg.subtract_and_update(&with_block(90, 180));
        // 16x10 block = 160 px, majority filter trims the border.
        assert!(m.count() > 100, "count = {}", m.count());
        assert!(m.get(16, 15));
        assert!(!m.get(2, 2));
    }

    #[test]
    fn dark_block_also_detected() {
        let mut bg = BackgroundModel::from_frame(&flat(120));
        let m = bg.subtract_and_update(&with_block(120, 20));
        assert!(m.count() > 100);
    }

    #[test]
    fn model_adapts_to_slow_illumination_change() {
        let mut bg = BackgroundModel::from_frame(&flat(90));
        // Drift the scene brightness upward slowly.
        for v in 90..130u8 {
            let m = bg.subtract_and_update(&flat(v));
            assert_eq!(m.count(), 0, "false positives at {v}");
        }
    }

    #[test]
    fn stopped_object_persists_for_event_duration() {
        let mut bg = BackgroundModel::from_frame(&flat(90));
        let f = with_block(90, 180);
        // A stopped vehicle should stay detected for at least ~100
        // frames (longer than any incident window).
        for i in 0..100 {
            let m = bg.subtract_and_update(&f);
            assert!(m.count() > 50, "lost object at frame {i}");
        }
    }

    #[test]
    fn stopped_object_eventually_burns_in() {
        // The slow foreground adaptation (alpha/20) means a permanently
        // parked object merges into the background on the multi-hundred
        // frame scale — long after any incident window, but eventually.
        let mut bg = BackgroundModel::from_frame(&flat(90));
        let f = with_block(90, 180);
        let mut frames_to_fade = None;
        for i in 0..5000 {
            let m = bg.subtract_and_update(&f);
            if m.count() == 0 {
                frames_to_fade = Some(i);
                break;
            }
        }
        let fade = frames_to_fade.expect("parked object never burned in");
        assert!(fade > 300, "burned in too fast: {fade} frames");
    }

    #[test]
    fn learn_converges_to_scene() {
        let mut bg = BackgroundModel::from_frame(&flat(0));
        let frames: Vec<GrayFrame> = (0..100).map(|_| flat(90)).collect();
        bg.learn(&frames);
        let est = bg.background();
        assert!((est.mean() - 90.0).abs() < 2.0, "mean = {}", est.mean());
    }

    /// Seeded frames around a base level: sensor noise, with bright or
    /// dark blocks that come and go, so pixels cross the threshold both
    /// ways and take both learning rates.
    fn noisy_frames(rng: &mut Pcg32, w: u32, h: u32, n: usize) -> Vec<GrayFrame> {
        (0..n)
            .map(|_| {
                let mut f = GrayFrame::black(w, h);
                for p in f.pixels_mut() {
                    *p = 100 + rng.uniform_u32(12) as u8;
                }
                let blocks = if f.is_empty() { 0 } else { rng.uniform_u32(3) };
                for _ in 0..blocks {
                    let (x0, y0) = (rng.uniform_u32(w), rng.uniform_u32(h));
                    let level = rng.uniform_u32(256) as u8;
                    for y in y0..(y0 + 1 + rng.uniform_u32(8)).min(h) {
                        for x in x0..(x0 + 1 + rng.uniform_u32(8)).min(w) {
                            f.set(x, y, level);
                        }
                    }
                }
                f
            })
            .collect()
    }

    fn bits(m: &BackgroundModel) -> Vec<u64> {
        m.mean.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn band_parallel_step_matches_sequential_kernels() {
        let mut rng = Pcg32::seeded(0xba4d);
        // Heights the band count does not divide, 1-row and 1-column
        // frames, and chunks shorter than the thread count.
        let shapes = [(32, 24), (13, 37), (7, 5), (41, 1), (1, 29), (1, 1), (0, 4)];
        for threads in [1, 2, 3, 4] {
            tsvr_par::set_threads(threads);
            for (w, h) in shapes {
                let frames = noisy_frames(&mut rng, w, h, 14);
                let mut seq = BackgroundModel::from_frame(&frames[0]);
                let mut fused = seq.clone();
                // Buffers reused across chunks, holding stale pixels.
                let mut bufs = vec![GrayFrame::filled(w, h, 0xa5); 6];
                let mut diffs = bufs.clone();
                let mut masks = vec![Mask::empty(w, h); 6];
                masks.iter_mut().for_each(|m| m.as_mut_slice().fill(true));
                let mut at = 1;
                for len in [1, 6, 2, 3, 1] {
                    let chunk = &frames[at..at + len];
                    let with_diff = len != 2;
                    let fill = |i: usize, rows: Range<u32>, out: &mut [u8]| {
                        let px = chunk[i].pixels();
                        out.copy_from_slice(&px[rows.start as usize * w as usize..][..out.len()]);
                    };
                    fused.step_chunk(
                        fill,
                        &mut bufs[..len],
                        with_diff.then(|| &mut diffs[..len]),
                        &mut masks[..len],
                    );
                    for (i, frame) in chunk.iter().enumerate() {
                        let what = format!("{threads} threads, {w}x{h}, frame {at}");
                        let want_diff = frame.abs_diff(&seq.background());
                        let want_raw: Vec<bool> = frame
                            .pixels()
                            .iter()
                            .zip(&seq.mean)
                            .map(|(&p, &m)| (p as f64 - m).abs() > seq.threshold)
                            .collect();
                        let want_mask = seq.subtract_and_update(frame);
                        assert_eq!(&bufs[i], frame, "{what}: filled frame");
                        if with_diff {
                            assert_eq!(diffs[i], want_diff, "{what}: diff");
                        }
                        assert_eq!(masks[i].as_slice(), &want_raw[..], "{what}: raw mask");
                        assert_eq!(masks[i].majority_filter(4), want_mask, "{what}: mask");
                        at += 1;
                    }
                    assert_eq!(
                        bits(&fused),
                        bits(&seq),
                        "{threads} threads, {w}x{h}: model"
                    );
                }
            }
        }
        tsvr_par::set_threads(0);
    }

    #[test]
    fn subtract_without_update_is_pure() {
        let bg = BackgroundModel::from_frame(&flat(90));
        let m1 = bg.subtract(&with_block(90, 180));
        let m2 = bg.subtract(&with_block(90, 180));
        assert_eq!(m1, m2);
        assert!(m1.count() > 0);
    }
}
