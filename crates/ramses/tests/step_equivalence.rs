//! Trajectory pin: `Simulation::run` must follow, bit for bit, the plain
//! kick–drift–kick stepper that evaluates the gravitational field twice per
//! step (once at the start from the current positions, once after the drift).
//!
//! The reference stepper below is built only from the crate's public
//! kernels. Any change to how the driver organises a step (carrying forces
//! between steps, moving the output cursor) has to leave every particle's
//! position and velocity, the expansion factor, the step count and the gas
//! state bitwise unchanged in all four physics configurations.

use grafic::CosmoParams;
use ramses::gravity::{drift, kick, ForceField, PmGravity};
use ramses::hydro::HydroGrid;
use ramses::nbody::{GasParams, RunParams, Simulation};
use ramses::particles::Particles;
use ramses::refine::{select_patch, RefinedPatch};
use ramses::Cosmology;

/// The straightforward stepper: two field solves per step, output cursor
/// advanced by the run loop.
struct Reference {
    params: RunParams,
    cosmo: Cosmology,
    parts: Particles,
    gravity: PmGravity,
    gas: Option<HydroGrid>,
    a: f64,
    step: usize,
    next_out: usize,
}

impl Reference {
    fn new(params: RunParams, ics: &grafic::IcParticles) -> Self {
        // Start from exactly the driver's initial state (particles, gas).
        let sim = Simulation::from_ics(params.clone(), ics);
        Reference {
            params,
            cosmo: sim.cosmo,
            parts: sim.parts,
            gravity: sim.gravity,
            gas: sim.gas,
            a: sim.a,
            step: 0,
            next_out: 0,
        }
    }

    /// Base-mesh accelerations, overridden by the fine patch where one is
    /// selected; returns the refined-particle count too.
    fn accelerations(&self, field: &ForceField, a: f64) -> (Vec<[f64; 3]>, usize) {
        let mut acc = self.gravity.accelerations(&self.parts, field);
        let Some(threshold) = self.params.refine_overdensity else {
            return (acc, 0);
        };
        let Some((corner, extent)) = select_patch(&field.rho, threshold) else {
            return (acc, 0);
        };
        let patch = RefinedPatch::solve(
            corner,
            extent,
            &field.phi,
            &self.parts,
            self.cosmo.poisson_factor(a),
            &self.gravity.mg,
        );
        let mut n = 0;
        for (i, pos) in self.parts.pos.iter().enumerate() {
            if let Some(fine) = patch.accel(*pos) {
                acc[i] = fine;
                n += 1;
            }
        }
        (acc, n)
    }

    /// One KDK step; returns the refined-particle count of the closing kick.
    fn advance(&mut self) -> usize {
        let field = self.gravity.field(&self.parts, &self.cosmo, self.a);
        let rho_max = field.rho.data.iter().copied().fold(0.0f64, f64::max);
        let mut dt = self.params.steps.dt(
            &self.parts,
            rho_max,
            &self.cosmo,
            self.a,
            self.params.mesh_n,
        );
        let t_now = self.cosmo.t_of_a(self.a);
        let t_end = self.cosmo.t_of_a(self.params.a_end);
        dt = dt.min(t_end - t_now).max(0.0);
        if self.next_out < self.params.aout.len() {
            let t_out = self.cosmo.t_of_a(self.params.aout[self.next_out]);
            if t_out > t_now {
                dt = dt.min(t_out - t_now);
            }
        }
        if dt <= 0.0 {
            return 0;
        }

        let (acc, _) = self.accelerations(&field, self.a);
        kick(&mut self.parts, &acc, self.a, dt / 2.0);
        let a_mid = self.cosmo.a_of_t(t_now + dt / 2.0);
        drift(&mut self.parts, a_mid, dt);
        let a_new = self.cosmo.a_of_t(t_now + dt);
        let field2 = self.gravity.field(&self.parts, &self.cosmo, a_new);
        let (acc2, n_refined) = self.accelerations(&field2, a_new);
        kick(&mut self.parts, &acc2, a_new, dt / 2.0);

        if let Some(gas) = &mut self.gas {
            let gp = self.params.gas.expect("gas grid implies gas params");
            let dt_hydro = dt / (a_mid * a_mid);
            let mut t = 0.0;
            let mut sub = 0;
            while t < dt_hydro && sub < 64 {
                let step = gas.max_dt(gp.cfl).min(dt_hydro - t);
                gas.step(step, gp.riemann);
                t += step;
                sub += 1;
            }
            gas.apply_gravity(&field2.accel, dt / a_new);
        }

        self.a = a_new;
        self.step += 1;
        n_refined
    }

    /// The run loop; returns the expansion factor of every snapshot and the
    /// total refined-particle count over all steps.
    fn run(&mut self) -> (Vec<f64>, usize) {
        let mut snaps = Vec::new();
        let mut refined = 0;
        while self.a < self.params.a_end - 1e-12 && self.step < self.params.max_steps {
            let a_prev = self.a;
            refined += self.advance();
            if self.a <= a_prev {
                break;
            }
            while self.next_out < self.params.aout.len()
                && self.a >= self.params.aout[self.next_out] - 1e-9
            {
                snaps.push(self.a);
                self.next_out += 1;
            }
        }
        if snaps
            .last()
            .map(|&a| (a - self.a).abs() > 1e-9)
            .unwrap_or(true)
        {
            snaps.push(self.a);
        }
        (snaps, refined)
    }
}

fn params(gas: Option<GasParams>, refine_overdensity: Option<f64>) -> RunParams {
    let cosmo = CosmoParams {
        a_init: 0.1,
        ..CosmoParams::default()
    };
    RunParams {
        cosmo,
        mesh_n: 8,
        a_end: 0.3,
        // Two intermediate outputs, so the cursor clamps more than once.
        aout: vec![0.15, 0.22],
        gas,
        refine_overdensity,
        ..RunParams::default()
    }
}

fn assert_equivalent(params: RunParams) -> (Simulation, usize) {
    let ics = grafic::generate_single_level(&params.cosmo, 8, params.box_mpc_h, 42).particles;
    let mut reference = Reference::new(params.clone(), &ics);
    let (ref_snaps, ref_refined) = reference.run();

    let mut sim = Simulation::from_ics(params, &ics);
    let snaps = sim.run();

    let snap_a: Vec<u64> = snaps.iter().map(|s| s.a.to_bits()).collect();
    let ref_a: Vec<u64> = ref_snaps.iter().map(|a| a.to_bits()).collect();
    assert_eq!(snap_a, ref_a, "snapshot expansion factors differ");
    assert_eq!(sim.step, reference.step, "step count differs");
    assert_eq!(sim.a.to_bits(), reference.a.to_bits(), "a differs");
    let refined: usize = sim.stats.iter().map(|s| s.n_refined).sum();
    assert_eq!(refined, ref_refined, "refined-particle counts differ");

    for (i, (p, q)) in sim.parts.pos.iter().zip(&reference.parts.pos).enumerate() {
        for d in 0..3 {
            assert_eq!(p[d].to_bits(), q[d].to_bits(), "particle {i} pos[{d}]");
        }
    }
    for (i, (v, w)) in sim.parts.vel.iter().zip(&reference.parts.vel).enumerate() {
        for d in 0..3 {
            assert_eq!(v[d].to_bits(), w[d].to_bits(), "particle {i} vel[{d}]");
        }
    }
    match (&sim.gas, &reference.gas) {
        (None, None) => {}
        (Some(g), Some(h)) => {
            for (ix, (c, r)) in g.cells.iter().zip(&h.cells).enumerate() {
                assert_eq!(c.rho.to_bits(), r.rho.to_bits(), "gas cell {ix} rho");
                assert_eq!(c.e.to_bits(), r.e.to_bits(), "gas cell {ix} energy");
            }
        }
        _ => panic!("gas presence differs"),
    }
    (sim, refined)
}

/// Below the densest cell of this 8³ run from a ≈ 0.17 on (ρ_max ≈ 1.8 at
/// a = 0.3), so the later steps take the fine-patch force.
const REFINE: f64 = 1.5;

#[test]
fn dm_run_matches_reference_stepper() {
    assert_equivalent(params(None, None));
}

#[test]
fn refined_run_matches_reference_stepper() {
    let (_, refined) = assert_equivalent(params(None, Some(REFINE)));
    assert!(refined > 0, "refinement never triggered");
}

#[test]
fn gas_run_matches_reference_stepper() {
    assert_equivalent(params(Some(GasParams::default()), None));
}

#[test]
fn gas_refined_run_matches_reference_stepper() {
    let (_, refined) = assert_equivalent(params(Some(GasParams::default()), Some(REFINE)));
    assert!(refined > 0, "refinement never triggered");
}
