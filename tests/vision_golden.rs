//! Integration: golden digests of the vision substrate's output.
//!
//! `tests/determinism.rs` compares two runs of the same build; these
//! digests pin the rendered pixels and the extracted tracks across code
//! versions, so a kernel rewrite that claims bit-identical output has to
//! prove it. Each case hashes (FNV-1a, 64-bit) every frame the pipeline
//! renders — the background warm-up frames and every clip frame — and
//! the `Debug` text of the tracks `pipeline::process` returns.
//!
//! The digests must not depend on the worker count: CI runs this file
//! at the default thread count, at `TSVR_THREADS=1`, at `TSVR_THREADS=2`
//! (the band split of a 2-vCPU host) and at `TSVR_THREADS=3` (uneven
//! row bands and chunk sizes).

use tsvr::sim::{fleet, Scenario, ScenarioKind, World};
use tsvr::vision::pipeline::{process, PipelineConfig};
use tsvr::vision::render::Renderer;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `(frames digest, tracks digest)` of one scenario.
fn digests(scenario: Scenario) -> (u64, u64) {
    let kind = scenario.kind;
    let sim = World::run(scenario);
    let cfg = PipelineConfig::default();
    let renderer = Renderer::new(kind, sim.width, sim.height);

    // The same salts `process` renders with: the warm-up plate, the
    // warm-up frames, then the clip frames.
    let mut frames = fnv1a(FNV_OFFSET, renderer.render(&[], u32::MAX).pixels());
    for i in 0..cfg.warmup_frames {
        frames = fnv1a(frames, renderer.render(&[], u32::MAX - 1 - i).pixels());
    }
    for obs in &sim.frames {
        frames = fnv1a(frames, renderer.render(&obs.vehicles, obs.frame).pixels());
    }

    let out = process(&sim, kind, &cfg);
    let tracks = fnv1a(FNV_OFFSET, format!("{:?}", out.tracks).as_bytes());
    (frames, tracks)
}

fn check(name: &str, scenario: Scenario, want: (u64, u64)) {
    let got = digests(scenario);
    assert_eq!(
        got,
        want,
        "{name}: (frames, tracks) digests {:#018x}, {:#018x}",
        got.0,
        got.1
    );
}

#[test]
fn tunnel_paper_output_matches_golden_digests() {
    let s = Scenario::tunnel_paper(2007);
    assert_eq!(s.kind, ScenarioKind::Tunnel);
    check(
        "tunnel_paper",
        s,
        (0xd8fd_2545_9c0a_60e0, 0x1471_9942_dec2_d534),
    );
}

#[test]
fn intersection_paper_output_matches_golden_digests() {
    let s = Scenario::intersection_paper(2007);
    assert_eq!(s.kind, ScenarioKind::Intersection);
    check(
        "intersection_paper",
        s,
        (0xfe51_f054_dfeb_9a35, 0xb325_cb1e_ef31_643b),
    );
}

#[test]
fn fleet_member_output_matches_golden_digests() {
    let s = fleet::scenario("occlusion_merge", 2007).expect("fleet member builds");
    check(
        "occlusion_merge",
        s,
        (0x236e_c4ec_1752_4d0e, 0x777b_c884_8989_93b8),
    );
}
