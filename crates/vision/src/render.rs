//! Synthetic frame rasterization.
//!
//! Stands in for the physical camera: draws the scene background (road
//! surface, lane markings, tunnel walls) once, then composites each
//! simulated vehicle as an oriented rectangle with per-vehicle shading,
//! and finally applies cheap deterministic sensor noise. The goal is not
//! photorealism but a pixel stream whose *segmentation problem* matches
//! the paper's: bright-ish vehicle bodies over a darker static
//! background, with noise that perturbs extracted centroids by a pixel
//! or so.

use crate::frame::GrayFrame;
use std::ops::{Range, RangeInclusive};
use std::sync::{Arc, Mutex, PoisonError};
use tsvr_sim::road::{TUNNEL_WALL_BOTTOM, TUNNEL_WALL_TOP};
use tsvr_sim::{ScenarioKind, Vec2, VehicleClass, VehicleObs};

/// Deterministic 2-D hash of a pixel position and a salt.
#[inline]
fn hash_u32(x: u32, y: u32, salt: u32) -> u32 {
    mix(x
        .wrapping_mul(0x9E3779B1)
        .wrapping_add(y.wrapping_mul(0x85EBCA77))
        .wrapping_add(salt.wrapping_mul(0xC2B2AE3D)))
}

/// The avalanche finish of [`hash_u32`].
#[inline]
fn mix(mut h: u32) -> u32 {
    h ^= h >> 16;
    h = h.wrapping_mul(0x7FEB352D);
    h ^= h >> 15;
    h = h.wrapping_mul(0x846CA68B);
    h ^= h >> 16;
    h
}

/// Maps a hash to `[-1, 1]`, monotonically.
#[inline]
fn unit_noise(h: u32) -> f64 {
    (h as f64 / u32::MAX as f64) * 2.0 - 1.0
}

/// Deterministic 2-D hash noise in `[-1, 1]`, cheap enough to run on
/// every pixel of every frame.
#[inline]
fn hash_noise(x: u32, y: u32, salt: u32) -> f64 {
    unit_noise(hash_u32(x, y, salt))
}

/// Gray level `p` after sensor noise of amplitude `amp` at hash `h`: the
/// `f64` definition every faster path must reproduce bit for bit.
#[inline]
fn noisy_level(p: u8, h: u32, amp: f64) -> u8 {
    (p as f64 + unit_noise(h) * amp).clamp(0.0, 255.0) as u8
}

/// Base body intensity per vehicle class. Classes differ slightly so the
/// PCA classifier has an intensity cue in addition to the size cue.
fn class_intensity(class: VehicleClass) -> f64 {
    match class {
        VehicleClass::Car => 168.0,
        VehicleClass::Suv => 188.0,
        VehicleClass::Pickup => 148.0,
    }
}

/// Renders scene backgrounds and vehicle composites.
#[derive(Debug, Clone)]
pub struct Renderer {
    background: GrayFrame,
    /// Sensor noise amplitude in gray levels.
    pub noise_amp: f64,
    /// Shadow flicker amplitude in px. Tunnels (artificial lighting,
    /// headlight reflections off walls) flicker far more than open-air
    /// daylight scenes.
    pub shadow_flicker: f64,
}

impl Renderer {
    /// Builds a renderer for a scenario layout at the given image size.
    pub fn new(kind: ScenarioKind, width: u32, height: u32) -> Renderer {
        let background = match kind {
            ScenarioKind::Tunnel => tunnel_background(width, height),
            ScenarioKind::Intersection => intersection_background(width, height),
        };
        Renderer {
            background,
            noise_amp: 3.0,
            shadow_flicker: match kind {
                ScenarioKind::Tunnel => 12.0,
                ScenarioKind::Intersection => 6.0,
            },
        }
    }

    /// The clean (noise-free) background plate.
    pub fn background(&self) -> &GrayFrame {
        &self.background
    }

    /// Renders one frame: background + vehicles + sensor noise.
    ///
    /// `frame_index` salts the noise so consecutive frames decorrelate.
    pub fn render(&self, vehicles: &[VehicleObs], frame_index: u32) -> GrayFrame {
        let mut f = GrayFrame::black(self.background.width(), self.background.height());
        self.render_rows(vehicles, frame_index, 0..f.height(), f.pixels_mut());
        f
    }

    /// Renders rows `rows` of the frame [`render`](Self::render) draws,
    /// into `out` (row-major, `rows.len() × width` pixels): the plate's
    /// rows, the shadows and vehicles clipped to them, then sensor noise
    /// hashed by absolute row. Every pixel's value depends only on its
    /// own position, so any split of a frame into row runs renders the
    /// same pixels as one [`render`](Self::render) call, bit for bit.
    ///
    /// Panics if `rows` reaches past the frame or `out` has the wrong
    /// length.
    pub fn render_rows(
        &self,
        vehicles: &[VehicleObs],
        frame_index: u32,
        rows: Range<u32>,
        out: &mut [u8],
    ) {
        let width = self.background.width();
        assert!(rows.start <= rows.end && rows.end <= self.background.height());
        let w = width as usize;
        let plate = &self.background.pixels()[rows.start as usize * w..rows.end as usize * w];
        out.copy_from_slice(plate);
        let mut window = RowWindow {
            px: out,
            width,
            rows,
        };
        for v in vehicles {
            draw_shadow(&mut window, v, frame_index, self.shadow_flicker);
        }
        for v in vehicles {
            draw_vehicle(&mut window, v);
        }
        add_sensor_noise(
            window.px,
            width,
            window.rows.start,
            frame_index.wrapping_mul(2654435761),
            self.noise_amp,
        );
    }
}

/// Rows `rows` of a `width`-wide frame, row-major: the part of a frame
/// one [`Renderer::render_rows`] call draws into.
struct RowWindow<'a> {
    px: &'a mut [u8],
    width: u32,
    rows: Range<u32>,
}

impl RowWindow<'_> {
    /// The pixels of the inclusive box `x0..=x1 × y0..=y1` that lie in
    /// the window, as inclusive `(xs, ys)` ranges in frame coordinates;
    /// empty ranges when they miss it.
    fn clip(
        &self,
        (x0, x1): (i64, i64),
        (y0, y1): (i64, i64),
    ) -> (RangeInclusive<i64>, RangeInclusive<i64>) {
        let xs = x0.max(0)..=x1.min(self.width as i64 - 1);
        let ys = y0.max(self.rows.start as i64)..=y1.min(self.rows.end as i64 - 1);
        (xs, ys)
    }

    #[inline]
    fn index(&self, x: i64, y: i64) -> usize {
        (y - self.rows.start as i64) as usize * self.width as usize + x as usize
    }
}

/// Adds sensor noise of amplitude `amp`, salted by `salt`, to the rows
/// of a `width`-wide frame held in `px`, the first of which is frame row
/// `y0`: bit-identical to [`noisy_level`] at each pixel's [`hash_u32`].
/// A finite `amp ≥ 0` runs on integers through its [`NoiseTable`]; any
/// other amplitude takes the `f64` definition. Rows are processed in
/// stack-held segments, so the pass allocates nothing.
fn add_sensor_noise(px: &mut [u8], width: u32, y0: u32, salt: u32, amp: f64) {
    let w = width as usize;
    if w == 0 {
        return;
    }
    let table = NoiseTable::cached(amp);
    let mut hashes = [0u32; NOISE_SEGMENT];
    let mut acc = [0i32; NOISE_SEGMENT];
    for (y, row) in (y0..).zip(px.chunks_exact_mut(w)) {
        for (s, seg) in row.chunks_mut(NOISE_SEGMENT).enumerate() {
            let hashes = &mut hashes[..seg.len()];
            hash_row((s * NOISE_SEGMENT) as u32, y, salt, hashes);
            match &table {
                Some(table) => table.apply_row(seg, hashes, &mut acc[..seg.len()]),
                None => {
                    for (p, &h) in seg.iter_mut().zip(hashes.iter()) {
                        *p = noisy_level(*p, h, amp);
                    }
                }
            }
        }
    }
}

/// Pixels per segment of [`add_sensor_noise`]'s row pass.
const NOISE_SEGMENT: usize = 64;

/// `hashes[i] = hash_u32(x0 + i, y, salt)` for every `i` of one run
/// of a row.
fn hash_row(x0: u32, y: u32, salt: u32, hashes: &mut [u32]) {
    // The pre-mix key is affine in `x`: step it instead of multiplying.
    let mut key = x0
        .wrapping_mul(0x9E3779B1)
        .wrapping_add(y.wrapping_mul(0x85EBCA77))
        .wrapping_add(salt.wrapping_mul(0xC2B2AE3D));
    for h in hashes {
        *h = mix(key);
        key = key.wrapping_add(0x9E3779B1);
    }
}

/// The level [`NoiseTable`] scans outward from to find its shared
/// range: mid-gray, far from both clamps.
const SHARED_REF_LEVEL: u8 = 128;

/// Shared thresholds per compare block: one block holds the six steps
/// of the default amplitude.
const STEP_BLOCK: usize = 6;

/// [`noisy_level`] for one amplitude as integer arithmetic on the hash.
///
/// For `amp ≥ 0` every step of `noisy_level` is monotone in the hash
/// `h` — `h as f64`, the division by a positive constant, `* 2.0 - 1.0`,
/// `* amp`, `p +`, the clamp and the truncating cast all preserve order
/// under round-to-nearest — so for each level `p` the output is a
/// nondecreasing step function of `h`: `base + #{t in thresholds : h ≥
/// t}`. Each threshold is the least hash whose output reaches the next
/// value, found by binary search on the `f64` expression itself, so the
/// table reproduces it exactly rather than approximately.
///
/// Most levels also share one threshold set up to a shift:
/// `clamp(p + offset + #{t in shared : h ≥ t}, 0, 255)`. A level joins
/// the shared range only if that form equals the `f64` expression at
/// `h = 0` and at every threshold of either step function — the only
/// points where either can change, so the two agree at every hash. A row
/// whose levels all lie in the range costs one compare-and-add pass per
/// block of shared thresholds over the row's hashes, which vectorizes;
/// any other row looks each pixel up in its own level's table.
#[derive(Debug)]
struct NoiseTable {
    amp_bits: u64,
    /// Contiguous levels whose output is the shared form.
    shared_levels: RangeInclusive<u8>,
    /// Output minus level at `h = 0`, before the clamp.
    offset: i32,
    /// The shared thresholds minus one (`h ≥ t` is `h > t - 1`; every
    /// threshold is at least 1), in blocks padded with `u32::MAX`,
    /// which no hash exceeds.
    shared: Vec<[u32; STEP_BLOCK]>,
    /// The exact step function of every level `0..=255`.
    levels: Vec<Steps>,
}

/// One level's output as a step function of the hash.
#[derive(Debug)]
struct Steps {
    /// Output at `h = 0`.
    base: u8,
    /// Least hash reaching `base + 1`, `base + 2`, ...; ascending.
    thresholds: Vec<u32>,
}

impl Steps {
    /// Level `p`'s step function at amplitude `amp ≥ 0`.
    fn of(p: u8, amp: f64) -> Steps {
        let base = noisy_level(p, 0, amp);
        let top = noisy_level(p, u32::MAX, amp);
        let thresholds = (base..top)
            .map(|below| {
                // Invariant: output(lo) <= below < output(hi).
                let (mut lo, mut hi) = (0u32, u32::MAX);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if noisy_level(p, mid, amp) > below {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                hi
            })
            .collect();
        Steps { base, thresholds }
    }

    #[inline]
    fn at(&self, h: u32) -> u8 {
        self.base + self.thresholds.iter().filter(|&&t| h >= t).count() as u8
    }
}

/// How many of a block's shared thresholds `h` has reached.
#[inline]
fn steps_in(block: &[u32; STEP_BLOCK], h: u32) -> i32 {
    block.iter().map(|&below| (h > below) as i32).sum()
}

impl NoiseTable {
    /// The table for `amp`, built on first use and kept until another
    /// amplitude is asked for; `None` unless `amp` is finite and `≥ 0`,
    /// the amplitudes for which the output is monotone in the hash.
    fn cached(amp: f64) -> Option<Arc<NoiseTable>> {
        static LAST: Mutex<Option<Arc<NoiseTable>>> = Mutex::new(None);
        if !(amp.is_finite() && amp >= 0.0) {
            return None;
        }
        let mut last = LAST.lock().unwrap_or_else(PoisonError::into_inner);
        match &*last {
            Some(table) if table.amp_bits == amp.to_bits() => Some(Arc::clone(table)),
            _ => Some(Arc::clone(last.insert(Arc::new(NoiseTable::build(amp))))),
        }
    }

    fn build(amp: f64) -> NoiseTable {
        let levels: Vec<Steps> = (0..=255).map(|p| Steps::of(p, amp)).collect();
        let reference = &levels[SHARED_REF_LEVEL as usize];
        let mut table = NoiseTable {
            amp_bits: amp.to_bits(),
            shared_levels: SHARED_REF_LEVEL..=SHARED_REF_LEVEL,
            offset: reference.base as i32 - SHARED_REF_LEVEL as i32,
            shared: reference
                .thresholds
                .chunks(STEP_BLOCK)
                .map(|ts| {
                    let mut block = [u32::MAX; STEP_BLOCK];
                    for (b, &t) in block.iter_mut().zip(ts) {
                        *b = t - 1;
                    }
                    block
                })
                .collect(),
            levels: Vec::new(),
        };
        let fits = |p: &u8| {
            std::iter::once(&0)
                .chain(&reference.thresholds)
                .chain(&levels[*p as usize].thresholds)
                .all(|&h| table.shared_at(*p, h) == noisy_level(*p, h, amp))
        };
        let lo = (0..SHARED_REF_LEVEL).rev().take_while(fits).last();
        let hi = (SHARED_REF_LEVEL + 1..=255).take_while(fits).last();
        table.shared_levels = lo.unwrap_or(SHARED_REF_LEVEL)..=hi.unwrap_or(SHARED_REF_LEVEL);
        table.levels = levels;
        table
    }

    /// The shared form at level `p` and hash `h`.
    fn shared_at(&self, p: u8, h: u32) -> u8 {
        let steps: i32 = self.shared.iter().map(|block| steps_in(block, h)).sum();
        (p as i32 + self.offset + steps).clamp(0, 255) as u8
    }

    /// Noise for one run of a row given its hashes; `acc` is scratch of
    /// the run's length.
    fn apply_row(&self, row: &mut [u8], hashes: &[u32], acc: &mut [i32]) {
        let (lo, hi) = row
            .iter()
            .fold((u8::MAX, u8::MIN), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        if self.shared_levels.contains(&lo) && self.shared_levels.contains(&hi) {
            for (a, &p) in acc.iter_mut().zip(row.iter()) {
                *a = p as i32 + self.offset;
            }
            for block in &self.shared {
                for (a, &h) in acc.iter_mut().zip(hashes) {
                    *a += steps_in(block, h);
                }
            }
            for (p, &a) in row.iter_mut().zip(acc.iter()) {
                *p = a.clamp(0, 255) as u8;
            }
        } else {
            for (p, &h) in row.iter_mut().zip(hashes) {
                *p = self.levels[*p as usize].at(h);
            }
        }
    }
}

/// Draws the vehicle's cast shadow: a darker quadrilateral offset to the
/// vehicle's lower-right (fixed scene lighting), whose reach flickers
/// frame to frame with the lighting noise. Shadows are the classic
/// failure mode of background subtraction — they move with the vehicle,
/// exceed the difference threshold, and smear the segmented blob, which
/// perturbs extracted centroids by a few pixels in a time-correlated
/// way. The paper's real footage has them; the reproduction needs them
/// so the initial heuristic faces realistic feature noise.
fn draw_shadow(f: &mut RowWindow, v: &VehicleObs, frame_index: u32, flicker: f64) {
    let (sin, cos) = v.heading.sin_cos();
    let axis = Vec2::new(cos, sin);
    let perp = Vec2::new(-sin, cos);
    // Flickering reach: 2..(2+flicker) px depending on frame and vehicle.
    let reach = 2.0 + flicker * (0.5 + 0.5 * hash_noise(v.id as u32, frame_index, 91));
    let center = v.center + Vec2::new(0.6, 1.0).normalized() * (v.half_wid + reach * 0.5);
    let half_len = v.half_len * 0.95;
    let half_wid = reach * 0.5 + 1.5;

    let r = half_len.hypot(half_wid).ceil();
    let x0 = (center.x - r).floor() as i64;
    let x1 = (center.x + r).ceil() as i64;
    let y0 = (center.y - r).floor() as i64;
    let y1 = (center.y + r).ceil() as i64;
    let (xs, ys) = f.clip((x0, x1), (y0, y1));
    for y in ys {
        for x in xs.clone() {
            let p = Vec2::new(x as f64, y as f64) - center;
            if p.dot(axis).abs() <= half_len && p.dot(perp).abs() <= half_wid {
                let i = f.index(x, y);
                f.px[i] = (f.px[i] as f64 - 34.0).clamp(0.0, 255.0) as u8;
            }
        }
    }
}

/// Draws one vehicle as an oriented rectangle with simple shading: a
/// brighter roof block in the middle and a per-vehicle intensity offset
/// derived from its id.
fn draw_vehicle(f: &mut RowWindow, v: &VehicleObs) {
    let base = class_intensity(v.class) + ((v.id.wrapping_mul(2654435761) % 31) as f64 - 15.0);
    let (sin, cos) = v.heading.sin_cos();
    let axis = Vec2::new(cos, sin);
    let perp = Vec2::new(-sin, cos);

    // Bounding box of the rotated rectangle.
    let r = v.half_len.hypot(v.half_wid).ceil();
    let x0 = (v.center.x - r).floor() as i64;
    let x1 = (v.center.x + r).ceil() as i64;
    let y0 = (v.center.y - r).floor() as i64;
    let y1 = (v.center.y + r).ceil() as i64;

    let (xs, ys) = f.clip((x0, x1), (y0, y1));
    for y in ys {
        for x in xs.clone() {
            let p = Vec2::new(x as f64, y as f64) - v.center;
            let u = p.dot(axis);
            let w = p.dot(perp);
            if u.abs() <= v.half_len && w.abs() <= v.half_wid {
                // Roof highlight over the middle half of the body.
                let roof = if u.abs() < v.half_len * 0.5 && w.abs() < v.half_wid * 0.6 {
                    18.0
                } else {
                    0.0
                };
                // Body texture.
                let tex = hash_noise(x as u32 & 0xffff, y as u32 & 0xffff, v.id as u32) * 5.0;
                let val = (base + roof + tex).clamp(0.0, 255.0);
                let i = f.index(x, y);
                f.px[i] = val as u8;
            }
        }
    }
}

/// Tunnel scene: dark walls at the top/bottom, road in the middle with a
/// dashed center line.
fn tunnel_background(width: u32, height: u32) -> GrayFrame {
    let mut f = GrayFrame::black(width, height);
    for y in 0..height {
        for x in 0..width {
            let yy = y as f64;
            let base = if !(TUNNEL_WALL_TOP..=TUNNEL_WALL_BOTTOM).contains(&yy) {
                // Tunnel wall: dark with slight vertical gradient.
                40.0 + (yy / height as f64) * 10.0
            } else {
                // Road surface.
                92.0
            };
            let tex = hash_noise(x, y, 17) * 4.0;
            let mut v = base + tex;
            // Dashed lane divider between the two lanes (y = 120).
            if (118..122).contains(&y) && (x / 16) % 2 == 0 {
                v = 190.0;
            }
            f.set(x, y, v.clamp(0.0, 255.0) as u8);
        }
    }
    f
}

/// Intersection scene: two crossing roads over grass, with stop lines.
fn intersection_background(width: u32, height: u32) -> GrayFrame {
    let mut f = GrayFrame::black(width, height);
    let cx = width as f64 / 2.0;
    let cy = height as f64 / 2.0;
    let road_half = 26.0;
    for y in 0..height {
        for x in 0..width {
            let xx = x as f64;
            let yy = y as f64;
            let on_ew = (yy - cy).abs() <= road_half;
            let on_ns = (xx - cx).abs() <= road_half;
            let base = if on_ew || on_ns {
                92.0
            } else {
                // Grass / sidewalk.
                60.0
            };
            let tex = hash_noise(x, y, 23) * 4.0;
            let mut v = base + tex;
            // Center lines.
            if on_ew && (yy - cy).abs() < 1.5 && !on_ns {
                v = 185.0;
            }
            if on_ns && (xx - cx).abs() < 1.5 && !on_ew {
                v = 185.0;
            }
            f.set(x, y, v.clamp(0.0, 255.0) as u8);
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(x: f64, y: f64, heading: f64) -> VehicleObs {
        VehicleObs {
            id: 5,
            class: VehicleClass::Car,
            center: Vec2::new(x, y),
            heading,
            half_len: 11.0,
            half_wid: 5.0,
            speed: 3.0,
        }
    }

    #[test]
    fn backgrounds_have_expected_structure() {
        let t = tunnel_background(320, 240);
        // Wall darker than road.
        assert!(t.get(160, 20) < t.get(160, 120) || t.get(160, 20) < 80);
        let i = intersection_background(320, 240);
        // Road brighter than grass.
        assert!(i.get(160, 120) > i.get(20, 20));
    }

    #[test]
    fn vehicle_brighter_than_road() {
        let r = Renderer::new(ScenarioKind::Tunnel, 320, 240);
        let f = r.render(&[obs(160.0, 104.0, 0.0)], 0);
        let bg = r.render(&[], 0);
        assert!(f.get(160, 104) as i32 - bg.get(160, 104) as i32 > 40);
    }

    #[test]
    fn render_is_deterministic() {
        let r = Renderer::new(ScenarioKind::Tunnel, 320, 240);
        let a = r.render(&[obs(100.0, 136.0, 0.1)], 7);
        let b = r.render(&[obs(100.0, 136.0, 0.1)], 7);
        assert_eq!(a, b);
    }

    #[test]
    fn noise_varies_with_frame_index() {
        let r = Renderer::new(ScenarioKind::Tunnel, 320, 240);
        let a = r.render(&[], 1);
        let b = r.render(&[], 2);
        assert_ne!(a, b);
        // But only by noise amplitude.
        let diff = a.abs_diff(&b);
        let max = diff.pixels().iter().cloned().max().unwrap();
        assert!(max as f64 <= 2.0 * r.noise_amp + 1.0, "max diff {max}");
    }

    #[test]
    fn rotated_vehicle_covers_rotated_extent() {
        let r = Renderer::new(ScenarioKind::Intersection, 320, 240);
        // Vertical heading: the long axis should now span y.
        let f = r.render(&[obs(160.0, 120.0, std::f64::consts::FRAC_PI_2)], 0);
        let bg = r.background();
        let bright = |x: u32, y: u32| f.get(x, y) as i32 - bg.get(x, y) as i32 > 30;
        assert!(bright(160, 129)); // within half_len along y
        assert!(!bright(170, 120)); // beyond half_wid along x
    }

    #[test]
    fn vehicle_clipped_at_image_edge_does_not_panic() {
        let r = Renderer::new(ScenarioKind::Tunnel, 320, 240);
        let _ = r.render(&[obs(2.0, 104.0, 0.0), obs(318.0, 136.0, 0.0)], 0);
    }

    #[test]
    fn classes_have_distinct_intensities() {
        let i_car = class_intensity(VehicleClass::Car);
        let i_suv = class_intensity(VehicleClass::Suv);
        let i_pickup = class_intensity(VehicleClass::Pickup);
        assert!(i_suv > i_car && i_car > i_pickup);
    }

    /// The shared thresholds of `table`, ascending, without padding.
    fn shared_thresholds(table: &NoiseTable) -> Vec<u32> {
        table
            .shared
            .iter()
            .flatten()
            .filter(|&&below| below != u32::MAX)
            .map(|&below| below + 1)
            .collect()
    }

    #[test]
    fn noise_table_matches_f64_at_every_level_and_threshold() {
        // Each level's output is monotone in the hash, so agreeing with
        // the f64 definition at 0, at u32::MAX and on both sides of
        // every threshold is agreeing at every hash.
        let cases = [(3.0, 2..=255, 6), (5.0, 2..=255, 10), (40.0, 9..=255, 80)];
        for (amp, shared_levels, steps) in cases {
            let table = NoiseTable::build(amp);
            assert_eq!(table.shared_levels, shared_levels, "amp {amp}");
            let shared = shared_thresholds(&table);
            assert_eq!(shared.len(), steps, "amp {amp}");
            for p in 0..=255u8 {
                let steps = &table.levels[p as usize];
                let mut probes = vec![0, u32::MAX];
                for &t in steps.thresholds.iter().chain(&shared) {
                    probes.extend([t - 1, t, t.saturating_add(1)]);
                }
                for h in probes {
                    let want = noisy_level(p, h, amp);
                    assert_eq!(steps.at(h), want, "amp {amp} level {p} hash {h}");
                    if table.shared_levels.contains(&p) {
                        assert_eq!(table.shared_at(p, h), want, "amp {amp} level {p} hash {h}");
                    }
                }
            }
        }
    }

    /// The per-pixel f64 pass the noise table replaced.
    fn add_sensor_noise_f64(f: &mut GrayFrame, salt: u32, amp: f64) {
        for y in 0..f.height() {
            for x in 0..f.width() {
                let n = hash_noise(x, y, salt) * amp;
                let p = f.get(x, y) as f64 + n;
                f.set(x, y, p.clamp(0.0, 255.0) as u8);
            }
        }
    }

    #[test]
    fn sensor_noise_matches_the_f64_pass_on_whole_frames() {
        let mut rng = tsvr_sim::Pcg32::seeded(0x4015e);
        let amps = [0.0, -0.0, 0.7, 3.0, 5.0, 40.0, 300.0, -2.0, f64::NAN, f64::INFINITY];
        for (w, h) in [(320, 240), (1, 9), (9, 1), (1, 1), (0, 4), (4, 0), (17, 13)] {
            for case in 0..6u32 {
                let mut f = GrayFrame::black(w, h);
                for (i, p) in f.pixels_mut().iter_mut().enumerate() {
                    // Mid-gray rows take the shared path; every fourth
                    // row may hold clamp-side levels too.
                    let row = i / w.max(1) as usize;
                    *p = match (case, row % 4) {
                        (0, _) => rng.uniform_u32(256) as u8,
                        (_, 3) => [0, 1, 2, 254, 255][rng.uniform_u32(5) as usize],
                        _ => 40 + rng.uniform_u32(160) as u8,
                    };
                }
                for amp in amps {
                    let salt = rng.next_u32();
                    let mut got = f.clone();
                    add_sensor_noise(got.pixels_mut(), w, 0, salt, amp);
                    let mut want = f.clone();
                    add_sensor_noise_f64(&mut want, salt, amp);
                    assert_eq!(got, want, "{w}x{h} case {case} amp {amp}");
                }
            }
        }
    }

    #[test]
    fn render_rows_equals_render_for_every_row_split() {
        let mut rng = tsvr_sim::Pcg32::seeded(0x0b5d);
        let vehicle = |id: u64, x: f64, y: f64, heading: f64, class| VehicleObs {
            id,
            class,
            center: Vec2::new(x, y),
            heading,
            half_len: 11.0,
            half_wid: 5.0,
            speed: 3.0,
        };
        let shapes = [(320, 240), (37, 29), (16, 7), (9, 1), (1, 13), (0, 6), (6, 0), (0, 0)];
        for (w, h) in shapes {
            let (wf, hf) = (w as f64, h as f64);
            // Vehicles straddling the frame's edges and corners, one off
            // the frame, and seeded ones anywhere near it (shadows reach
            // down and right of them, across band edges).
            let mut vehicles = vec![
                vehicle(1, 0.0, hf / 2.0, 0.0, VehicleClass::Car),
                vehicle(2, wf, hf, 0.7, VehicleClass::Suv),
                vehicle(3, wf / 2.0, 0.0, 1.6, VehicleClass::Pickup),
                vehicle(4, wf / 2.0, hf - 1.0, 2.9, VehicleClass::Car),
                vehicle(5, -40.0, -40.0, 0.0, VehicleClass::Car),
            ];
            for id in 6..14 {
                let x = rng.next_f64() * (wf + 20.0) - 10.0;
                let y = rng.next_f64() * (hf + 20.0) - 10.0;
                vehicles.push(vehicle(id, x, y, rng.next_f64() * 6.3, VehicleClass::Suv));
            }
            for kind in [ScenarioKind::Tunnel, ScenarioKind::Intersection] {
                for amp in [3.0, 0.0, 40.0, f64::NAN, -2.0] {
                    let mut r = Renderer::new(kind, w, h);
                    r.noise_amp = amp;
                    let frame_index = rng.next_u32();
                    let want = r.render(&vehicles, frame_index);
                    // Row runs: all 1-row runs, band splits for 1..=8
                    // bands (heights they do not divide leave a short
                    // last band), and seeded ragged splits.
                    let mut splits: Vec<Vec<u32>> = vec![(0..=h).collect()];
                    for bands in 1..=8u32 {
                        let step = h.div_ceil(bands).max(1);
                        splits.push((0..h).step_by(step as usize).chain([h]).collect());
                    }
                    for _ in 0..4 {
                        let mut cuts = vec![0, h];
                        for _ in 0..rng.uniform_u32(5) {
                            cuts.push(rng.uniform_u32(h + 1));
                        }
                        cuts.sort_unstable();
                        splits.push(cuts);
                    }
                    for cuts in splits {
                        let mut got = GrayFrame::filled(w, h, 0xA5);
                        let mut rest = got.pixels_mut();
                        for run in cuts.windows(2) {
                            let len = (run[1] - run[0]) as usize * w as usize;
                            let (head, tail) = rest.split_at_mut(len);
                            r.render_rows(&vehicles, frame_index, run[0]..run[1], head);
                            rest = tail;
                        }
                        assert_eq!(got, want, "{w}x{h} {kind:?} amp {amp} cuts {cuts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn hash_noise_bounded_and_deterministic() {
        for x in 0..50 {
            for y in 0..50 {
                let n = hash_noise(x, y, 3);
                assert!((-1.0..1.0).contains(&n));
                assert_eq!(n, hash_noise(x, y, 3));
            }
        }
        assert_ne!(hash_noise(1, 2, 3), hash_noise(2, 1, 3));
    }
}
