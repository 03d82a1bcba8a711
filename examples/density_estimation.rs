//! Kernel density estimation by direct particle deposition: the spread
//! stage as a standalone operator, no FFT anywhere.
//!
//! A clustered 2D particle cloud is deposited onto a grid with
//! `NufftPlan::spread_only` — each particle scatters its mass through the
//! same Kaiser–Bessel window the NUFFT gridder uses, which is exactly a
//! KDE with the KB kernel as the smoother. The density field is then read
//! back *at the particle positions* with `interp_only` (the gather
//! transpose), giving a per-particle local-density estimate — the
//! neighbour-weighting step of SPH-style codes.
//!
//! ```text
//! cargo run --release --example density_estimation
//! ```

use nufft::core::{FftOp, NufftConfig, NufftPlan, PlanRegistry};
use nufft::fft::Direction;
use nufft::math::{Complex32, Complex64};
use nufft::traj::generators::clustered_cloud;

fn main() {
    // 50k particles in 6 clusters over a [-0.5, 0.5)² box (the plan's
    // trajectory domain), deposited onto a 128² estimation grid.
    let n = [128usize, 128];
    let particles: Vec<[f64; 2]> = clustered_cloud::<2>(50_000, 6, 0.46, 0.05, 42)
        .into_iter()
        .map(|p| [p[0].clamp(-0.5, 0.4999), p[1].clamp(-0.5, 0.4999)])
        .collect();
    // Unit masses; the imaginary lane rides along for free (a second
    // scalar field — e.g. charge — deposited in the same pass).
    let mass = vec![Complex32::new(1.0, 0.0); particles.len()];

    let cfg = NufftConfig { w: 4.0, ..NufftConfig::default() };
    let mut plan = NufftPlan::new(n, &particles, cfg);
    let mut density = vec![Complex32::ZERO; plan.grid_len()];

    let t0 = std::time::Instant::now();
    plan.spread_only(&mass, &mut density);
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "deposited {} particles onto {:?} grid in {:.2} ms ({:.1} Mpart/s)",
        particles.len(),
        plan.geometry().m,
        dt * 1e3,
        particles.len() as f64 / dt / 1e6
    );

    // Field statistics. Total deposited mass is Σ_j m_j · Σ(window), so
    // normalizing by the per-particle window sum recovers the count.
    let total: f64 = density.iter().map(|c| c.re as f64).sum();
    let window_sum = total / particles.len() as f64;
    let peak = density.iter().map(|c| c.re).fold(0.0f32, f32::max);
    let occupied = density.iter().filter(|c| c.re != 0.0).count();
    println!(
        "field   : peak {:.1}, {}/{} cells occupied, per-particle window sum {:.4}",
        peak,
        occupied,
        density.len(),
        window_sum
    );

    // Gather the estimate back at the particle positions: each particle's
    // local density, KB-smoothed — min/max expose the cluster contrast.
    let mut local = vec![Complex32::ZERO; particles.len()];
    plan.interp_only(&density, &mut local);
    let (lo, hi) =
        local.iter().fold((f32::INFINITY, 0.0f32), |(lo, hi), c| (lo.min(c.re), hi.max(c.re)));
    println!("local   : per-particle density in [{lo:.1}, {hi:.1}]");

    // Cross-check 1: `spread_only` deposited through the `SpreadOp`
    // task-graph driver; the plan's adjoint runs the same scatter inside
    // its fused graph. The deposit, passed through a full backward FFT and
    // the roll-off extract, must reproduce `adjoint(mass)` bit for bit.
    let c = *plan.config();
    let exec = plan.executor().clone();
    let mut fft = FftOp::plan(&plan.geometry().m, c.fft_strategy, c.fft_llc_budget, c.threads);
    let mut spectrum = density.clone();
    fft.apply(&exec, &mut spectrum, Direction::Backward);
    let mut via_stages = vec![Complex32::ZERO; plan.image_len()];
    plan.deconv_op().extract(&spectrum, &mut via_stages);
    let mut via_adjoint = vec![Complex32::ZERO; plan.image_len()];
    plan.adjoint(&mass, &mut via_adjoint);
    let bitwise = via_stages
        .iter()
        .zip(&via_adjoint)
        .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
    println!("check   : deposit -> FFT -> extract equals the fused adjoint bitwise: {bitwise}");
    assert!(bitwise, "stage-driver deposit and fused adjoint scatter diverged");

    // Cross-check 2: scatter and gather are exact transposes,
    // ⟨spread(m), g⟩ == ⟨m, interp(g)⟩.
    let probe: Vec<Complex32> = (0..density.len())
        .map(|i| Complex32::new((i as f32 * 0.013).sin(), (i as f32 * 0.007).cos()))
        .collect();
    let mut probe_at = vec![Complex32::ZERO; particles.len()];
    plan.interp_only(&probe, &mut probe_at);
    let lhs: Complex64 =
        density.iter().zip(&probe).map(|(&a, &b)| a.to_f64().conj() * b.to_f64()).sum();
    let rhs: Complex64 =
        mass.iter().zip(&probe_at).map(|(&a, &b)| a.to_f64().conj() * b.to_f64()).sum();
    let rel = (lhs - rhs).abs() / lhs.abs().max(1e-9);
    println!("check   : transpose dot-test relative error {rel:.2e}");
    assert!(rel < 1e-4, "spread/interp transpose dot-test failed: {rel}");

    // Registry-pooled variant: repeated depositions (a particle code's
    // per-timestep loop) check out the same cached spread-only plan.
    let registry = PlanRegistry::<2>::new(cfg);
    for _step in 0..3 {
        let mut lease = registry.checkout_spread(n, &particles);
        lease.spread_only(&mass, &mut density);
    }
    let stats = registry.stats();
    println!(
        "registry: {} deposition steps -> {} build, {} cache hits",
        3, stats.misses, stats.hits
    );
}
