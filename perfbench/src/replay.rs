//! Solve replays for the traced run.
//!
//! The solve phases run inside the SeD, out of the benchmark's reach, so
//! the traced run repeats a solve in this process through the compute
//! crates' public functions, timing each phase, outside any timed window.
//! The service glue (`services.rs`: namelist to run parameters, catalog
//! text) is private, so it is mirrored here; a replay counts only when the
//! halo catalog it produces is byte-identical to the one the SeD returned,
//! which also catches this mirror drifting from the service.

use crate::layers::Layers;
use cosmogrid::namelist::Namelist;
use galics::{FofParams, HaloCatalog, SamParams};
use grafic::CosmoParams;
use ramses::amr::{AmrParams, Octree};
use ramses::gravity::StepControl;
use ramses::nbody::{GasParams, RunParams, Simulation, Snapshot};
use std::hint::black_box;
use std::time::Instant;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Mirror of the service's namelist parsing (`parse_run`) for valid input.
fn run_params(nl_text: &str, resolution: i32) -> Option<(RunParams, f64)> {
    let nl = Namelist::parse(nl_text).ok()?;
    let boxlen = nl.get_f64("AMR_PARAMS", "boxlen").unwrap_or(100.0);
    let a_init = nl.get_f64("INIT_PARAMS", "aexp_ini").unwrap_or(0.1);
    let aout = nl
        .get_f64_list("OUTPUT_PARAMS", "aout")
        .unwrap_or_else(|_| vec![0.3, 0.5]);
    let a_end = aout.iter().cloned().fold(a_init * 2.0, f64::max).min(1.0);
    let with_gas = nl.get_bool("RUN_PARAMS", "hydro").unwrap_or(false);
    let cosmo = CosmoParams {
        a_init,
        ..CosmoParams::default()
    };
    Some((
        RunParams {
            cosmo,
            box_mpc_h: boxlen,
            mesh_n: (4 * resolution as usize).min(if with_gas { 16 } else { 32 }),
            a_end,
            aout: aout
                .into_iter()
                .filter(|&a| a > a_init && a < 1.0)
                .collect(),
            amr: AmrParams::default(),
            steps: StepControl::default(),
            max_steps: 400,
            gas: with_gas.then(GasParams::default),
            refine_overdensity: None,
        },
        boxlen,
    ))
}

fn service_fof() -> FofParams {
    FofParams {
        b: 0.2,
        min_members: 5,
    }
}

/// Mirror of the service's catalog text.
fn catalog_text(cat: &HaloCatalog) -> String {
    let mut s = String::from("# id npart mass_msun x y z vx vy vz radius sigma_v spin\n");
    for h in &cat.halos {
        s.push_str(&format!(
            "{} {} {:.6e} {:.6} {:.6} {:.6} {:.4} {:.4} {:.4} {:.6} {:.4} {:.4}\n",
            h.id,
            h.npart,
            h.mass_msun,
            h.pos[0],
            h.pos[1],
            h.pos[2],
            h.vel[0],
            h.vel[1],
            h.vel[2],
            h.radius,
            h.sigma_v,
            h.spin
        ));
    }
    s
}

/// Step the simulation to the end exactly as `Simulation::run` does, and
/// between steps time the gravity, multigrid and octree kernels on the
/// live state. Those probes are pure, so the trajectory is untouched.
///
/// `run` also advances a private output cursor that clamps the step to the
/// next output time; stepping from outside cannot, so the trajectories
/// agree only while at most one intermediate output is requested (the
/// benchmark's namelist asks for one). The catalog comparison enforces it.
fn run_probed(sim: &mut Simulation, l: &mut Layers) -> Vec<Snapshot> {
    let mut snaps = Vec::new();
    let mut next_out = 0;
    while sim.a < sim.params.a_end - 1e-12 && sim.step < sim.params.max_steps {
        let t = Instant::now();
        let field = sim.gravity.field(&sim.parts, &sim.cosmo, sim.a);
        l.sample("ramses.pm_field_ms", ms(t));
        let t = Instant::now();
        black_box(sim.gravity.accelerations(&sim.parts, &field));
        l.sample("ramses.accel_ms", ms(t));
        let mut src = ramses::particles::cic_deposit(&sim.parts, sim.gravity.n);
        let factor = sim.cosmo.poisson_factor(sim.a);
        src.data.iter_mut().for_each(|v| *v = factor * (*v - 1.0));
        let sol = ramses::poisson::solve(&src, &sim.gravity.mg);
        l.sample("ramses.mg_cycles", sol.cycles as f64);
        let t = Instant::now();
        black_box(Octree::build(&sim.parts, sim.params.amr));
        l.sample("ramses.octree_ms", ms(t));

        let a_prev = sim.a;
        let t = Instant::now();
        sim.advance_step();
        l.sample("ramses.step_ms", ms(t));
        l.count("ramses.steps", 1.0);
        if sim.a <= a_prev {
            break;
        }
        while next_out < sim.params.aout.len() && sim.a >= sim.params.aout[next_out] - 1e-9 {
            snaps.push(sim.snapshot());
            next_out += 1;
        }
    }
    if snaps
        .last()
        .map(|s| (s.a - sim.a).abs() > 1e-9)
        .unwrap_or(true)
    {
        snaps.push(sim.snapshot());
    }
    snaps
}

/// Replay a `ramsesZoom1` solve; true when its catalog matches `expected`.
pub fn zoom1(nl_text: &str, resolution: i32, expected: &[u8], l: &mut Layers) -> bool {
    let Some((params, boxlen)) = run_params(nl_text, resolution) else {
        return false;
    };
    let t = Instant::now();
    let ics = grafic::generate_single_level(
        &params.cosmo,
        resolution as usize,
        boxlen,
        1907 + resolution as u64,
    );
    l.sample("grafic.ics_ms", ms(t));
    let mut sim = Simulation::from_ics(params, &ics.particles);
    let snaps = run_probed(&mut sim, l);
    let last = snaps.last().expect("run_probed always yields a snapshot");
    let t = Instant::now();
    let cat = galics::halo::halo_maker(last, &service_fof());
    l.sample("galics.halo_maker_ms", ms(t));
    l.count("galics.halos", cat.halos.len() as f64);
    let t = Instant::now();
    black_box(ramses::io::encode_snapshot(last));
    l.sample("ramses.snapshot_encode_ms", ms(t));
    catalog_text(&cat).as_bytes() == expected
}

/// Replay a `ramsesZoom2` solve (ICs, run, the GALICS chain); true when
/// its final halo catalog matches `expected`.
pub fn zoom2(
    nl_text: &str,
    resolution: i32,
    size_mpc_h: i32,
    centre: [i32; 3],
    nb_box: i32,
    expected: &[u8],
    l: &mut Layers,
) -> bool {
    let Some((mut params, _)) = run_params(nl_text, resolution) else {
        return false;
    };
    params.box_mpc_h = size_mpc_h as f64;
    let [cx, cy, cz] = centre;
    let c = centre.map(|p| p as f64 / 100.0 * params.box_mpc_h);
    let seed = 2007 ^ ((cx as u64) << 20) ^ ((cy as u64) << 10) ^ (cz as u64);
    let t = Instant::now();
    let zoom = grafic::zoom::generate_zoom(
        &params.cosmo,
        resolution as usize,
        params.box_mpc_h,
        c,
        nb_box as usize,
        seed,
    );
    l.sample("grafic.ics_ms", ms(t));
    let mut sim = Simulation::from_ics(params, &zoom.particles);
    let snaps = run_probed(&mut sim, l);

    let fof = service_fof();
    let t_pipe = Instant::now();
    let mut cats = Vec::with_capacity(snaps.len());
    for s in &snaps {
        let t = Instant::now();
        cats.push(galics::halo::halo_maker(s, &fof));
        l.sample("galics.halo_maker_ms", ms(t));
    }
    let tree = galics::tree::tree_maker(&snaps, &cats);
    black_box(galics::galaxy::galaxy_maker(&tree, &SamParams::default()));
    l.sample("galics.pipeline_ms", ms(t_pipe));
    let last = cats.last().expect("one catalog per snapshot");
    l.count("galics.halos", last.halos.len() as f64);
    let t = Instant::now();
    black_box(ramses::io::encode_snapshot(
        snaps.last().expect("run_probed always yields a snapshot"),
    ));
    l.sample("ramses.snapshot_encode_ms", ms(t));
    catalog_text(last).as_bytes() == expected
}
