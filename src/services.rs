//! The `ramsesZoom1` and `ramsesZoom2` services.
//!
//! These are the paper's two services (Section 4), implemented for real: the
//! solve functions run the full `grafic → ramses → galics` pipeline in-process
//! at whatever resolution the client requests (laptop-scale in tests and
//! examples), and pack their outputs into a tar archive returned through the
//! OUT file argument, with the OUT error-code argument set to 0 on success —
//! matching the client convention `if (!*returnedValue) diet_file_get(...)`.

use crate::archive::{self, Entry};
use crate::namelist::Namelist;
use bytes::Bytes;
use diet_core::data::{DietValue, Persistence};
use diet_core::profile::{ramses_zoom1_desc, ramses_zoom2_desc, Profile};
use diet_core::sed::{ServiceTable, SolveFn};
use galics::{FofParams, SamParams};
use grafic::CosmoParams;
use ramses::amr::AmrParams;
use ramses::gravity::StepControl;
use ramses::nbody::{GasParams, RunParams, Simulation};
use std::sync::Arc;

/// Service-level error codes carried in the OUT error argument.
pub mod status {
    pub const OK: i32 = 0;
    /// Parameter file unreadable / inconsistent.
    pub const BAD_NAMELIST: i32 = 1;
    /// Resolution not a power of two (or out of supported range).
    pub const BAD_RESOLUTION: i32 = 2;
    /// Zoom parameters out of range.
    pub const BAD_ZOOM: i32 = 3;
    /// Simulation produced no halos to catalog.
    pub const NO_HALOS: i32 = 4;
}

/// Limits applied by the server: the encapsulated application protects its
/// cluster from absurd requests.
const MAX_RESOLUTION: i32 = 64;
const MAX_ZOOM_LEVELS: i32 = 4;

fn parse_run(nl_text: &str, resolution: i32) -> Result<(RunParams, f64), i32> {
    let nl = Namelist::parse(nl_text).map_err(|_| status::BAD_NAMELIST)?;
    if !(4..=MAX_RESOLUTION).contains(&resolution) || !(resolution as u32).is_power_of_two() {
        return Err(status::BAD_RESOLUTION);
    }
    let boxlen = nl.get_f64("AMR_PARAMS", "boxlen").unwrap_or(100.0);
    let a_init = nl.get_f64("INIT_PARAMS", "aexp_ini").unwrap_or(0.1);
    let aout = nl
        .get_f64_list("OUTPUT_PARAMS", "aout")
        .unwrap_or_else(|_| vec![0.3, 0.5]);
    if boxlen <= 0.0 || a_init <= 0.0 || a_init >= 1.0 {
        return Err(status::BAD_NAMELIST);
    }
    let a_end = aout.iter().cloned().fold(a_init * 2.0, f64::max).min(1.0);
    // `hydro = .true.` in RUN_PARAMS switches on the coupled gas component.
    let with_gas = nl.get_bool("RUN_PARAMS", "hydro").unwrap_or(false);
    let cosmo = CosmoParams {
        a_init,
        ..CosmoParams::default()
    };
    Ok((
        RunParams {
            cosmo,
            box_mpc_h: boxlen,
            // PM practice: a force mesh finer than the particle lattice, so
            // collapse is not floored at the inter-particle spacing (capped
            // for laptop execution; the paper's clusters ran 128³+). Gas
            // runs cap lower: the Godunov sweeps sub-cycle to the hydro CFL,
            // so mesh cost multiplies into every gravity step.
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

/// HaloMaker parameters for the services: the standard b = 0.2 linking
/// length, with a low minimum membership because the laptop-scale loads the
/// tests and examples run (8³–16³) only resolve halos with a handful of
/// particles each.
fn service_fof() -> FofParams {
    FofParams {
        b: 0.2,
        min_members: 5,
    }
}

fn halo_catalog_text(cat: &galics::HaloCatalog) -> String {
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

fn set_failure(p: &mut Profile, out_file: usize, out_code: usize, code: i32) {
    let empty = archive::pack(&[]).unwrap_or_else(|_| Bytes::new());
    let _ = p.set(
        out_file,
        DietValue::File {
            name: "results.tar".into(),
            data: empty,
        },
        Persistence::Volatile,
    );
    let _ = p.set(out_code, DietValue::ScalarI32(code), Persistence::Volatile);
}

/// `solve_ramsesZoom1`: low-resolution full-box simulation + HaloMaker.
/// IN: namelist file (0), resolution (1). OUT: halo-catalog tarball (2),
/// error code (3).
pub fn solve_ramses_zoom1(p: &mut Profile) -> Result<i32, diet_core::DietError> {
    let (_, nl_bytes) = p.get_file(0)?;
    let nl_text = String::from_utf8_lossy(nl_bytes).to_string();
    let resolution = p.get_i32(1)?;

    let (params, boxlen) = match parse_run(&nl_text, resolution) {
        Ok(v) => v,
        Err(code) => {
            set_failure(p, 2, 3, code);
            return Ok(0);
        }
    };

    // GRAFIC single-level ICs → RAMSES run → HaloMaker.
    let seed = 1907 + resolution as u64;
    let ics = grafic::generate_single_level(&params.cosmo, resolution as usize, boxlen, seed);
    let mut sim = Simulation::from_ics(params, &ics.particles);
    let snaps = sim.run();
    let last = snaps.last().expect("run() always yields a final snapshot");
    let cat = galics::halo::halo_maker(last, &service_fof());
    if cat.is_empty() {
        set_failure(p, 2, 3, status::NO_HALOS);
        return Ok(0);
    }

    let snap_bytes = ramses::io::encode_snapshot(last);
    let tar = archive::pack(&[
        Entry {
            name: "halos/catalog.txt".into(),
            data: Bytes::from(halo_catalog_text(&cat)),
        },
        Entry {
            name: "snapshots/final.bin".into(),
            data: snap_bytes,
        },
    ])
    .map_err(|e| diet_core::DietError::Rejected(format!("tar: {e}")))?;

    p.set(
        2,
        DietValue::File {
            name: "zoom1_results.tar".into(),
            data: tar,
        },
        Persistence::Volatile,
    )?;
    p.set(3, DietValue::ScalarI32(status::OK), Persistence::Volatile)?;
    Ok(0)
}

/// `solve_ramsesZoom2`: one zoom re-simulation + the full GALICS chain.
/// IN: namelist (0), resolution (1), IC size in Mpc/h (2), centre cx cy cz as
/// percent of box (3..=5), number of zoom levels (6). OUT: result tarball
/// (7), error code (8) — the paper's exact nine-argument profile.
pub fn solve_ramses_zoom2(p: &mut Profile) -> Result<i32, diet_core::DietError> {
    let (_, nl_bytes) = p.get_file(0)?;
    let nl_text = String::from_utf8_lossy(nl_bytes).to_string();
    let resolution = p.get_i32(1)?;
    let size = p.get_i32(2)?;
    let cx = p.get_i32(3)?;
    let cy = p.get_i32(4)?;
    let cz = p.get_i32(5)?;
    let nb_box = p.get_i32(6)?;

    let (mut params, _) = match parse_run(&nl_text, resolution) {
        Ok(v) => v,
        Err(code) => {
            set_failure(p, 7, 8, code);
            return Ok(0);
        }
    };
    if size <= 0 {
        set_failure(p, 7, 8, status::BAD_NAMELIST);
        return Ok(0);
    }
    params.box_mpc_h = size as f64;
    if !(1..=MAX_ZOOM_LEVELS).contains(&nb_box)
        || !(0..=100).contains(&cx)
        || !(0..=100).contains(&cy)
        || !(0..=100).contains(&cz)
    {
        set_failure(p, 7, 8, status::BAD_ZOOM);
        return Ok(0);
    }

    // Nested zoom ICs centred on the requested halo position.
    let center = [
        cx as f64 / 100.0 * params.box_mpc_h,
        cy as f64 / 100.0 * params.box_mpc_h,
        cz as f64 / 100.0 * params.box_mpc_h,
    ];
    let seed = 2007 ^ ((cx as u64) << 20) ^ ((cy as u64) << 10) ^ (cz as u64);
    let zoom = grafic::zoom::generate_zoom(
        &params.cosmo,
        resolution as usize,
        params.box_mpc_h,
        center,
        nb_box as usize,
        seed,
    );

    let mut sim = Simulation::from_ics(params, &zoom.particles);
    let snaps = sim.run();

    // GALICS chain over all snapshots: HaloMaker, TreeMaker, GalaxyMaker.
    let fof = service_fof();
    let (cats, tree, gals) = galics::run_pipeline(&snaps, &fof, &SamParams::default());

    let last_cat = cats.last().unwrap();
    let mut entries = vec![Entry {
        name: "halos/catalog.txt".into(),
        data: Bytes::from(halo_catalog_text(last_cat)),
    }];
    // Merger tree summary.
    let mut tree_txt = String::from("# node snap halo mass descendant n_progenitors\n");
    for (i, n) in tree.nodes.iter().enumerate() {
        tree_txt.push_str(&format!(
            "{i} {} {} {:.6e} {} {}\n",
            n.snap,
            n.halo,
            n.mass,
            n.descendant.map(|d| d as i64).unwrap_or(-1),
            n.progenitors.len()
        ));
    }
    entries.push(Entry {
        name: "tree/mergertree.txt".into(),
        data: Bytes::from(tree_txt),
    });
    // Galaxy catalog at the final snapshot.
    let mut gal_txt = String::from("# node stars_disc stars_bulge cold_gas hot_gas b_over_t\n");
    for g in gals.at_roots(&tree) {
        gal_txt.push_str(&format!(
            "{} {:.6e} {:.6e} {:.6e} {:.6e} {:.4}\n",
            g.node,
            g.stars_disc,
            g.stars_bulge,
            g.cold_gas,
            g.hot_gas,
            g.b_over_t()
        ));
    }
    entries.push(Entry {
        name: "galaxies/catalog.txt".into(),
        data: Bytes::from(gal_txt),
    });
    // Final snapshot for downstream analysis.
    entries.push(Entry {
        name: "snapshots/final.bin".into(),
        data: ramses::io::encode_snapshot(snaps.last().unwrap()),
    });

    let tar =
        archive::pack(&entries).map_err(|e| diet_core::DietError::Rejected(format!("tar: {e}")))?;
    p.set(
        7,
        DietValue::File {
            name: "zoom2_results.tar".into(),
            data: tar,
        },
        Persistence::Volatile,
    )?;
    p.set(8, DietValue::ScalarI32(status::OK), Persistence::Volatile)?;
    Ok(0)
}

/// Build the service table a cosmology SeD registers — the `main()` of the
/// paper's server, up to the `diet_SeD()` call.
pub fn cosmology_service_table() -> ServiceTable {
    let mut t = ServiceTable::init(2);
    let z1: SolveFn = Arc::new(solve_ramses_zoom1);
    let z2: SolveFn = Arc::new(solve_ramses_zoom2);
    t.add(ramses_zoom1_desc(), z1).expect("table size 2");
    t.add(ramses_zoom2_desc(), z2).expect("table size 2");
    t
}

/// Campaign-wide "fail exactly one solve" trip-wire for
/// [`zoom2_failure_table`]: cloned into every SeD's table, it fires true
/// exactly once across all clones.
#[derive(Clone)]
pub struct FailOnce(Arc<std::sync::atomic::AtomicBool>);

impl FailOnce {
    pub fn new() -> Self {
        FailOnce(Arc::new(std::sync::atomic::AtomicBool::new(false)))
    }

    /// True on the first call across every clone, false afterwards.
    pub fn trip(&self) -> bool {
        !self.0.swap(true, std::sync::atomic::Ordering::SeqCst)
    }
}

impl Default for FailOnce {
    fn default() -> Self {
        Self::new()
    }
}

/// A cosmology table whose `ramsesZoom2` fails **in-band** (empty result
/// tarball + `BAD_ZOOM` code, middleware rc 0) the first time any SeD
/// sharing `trip` runs it — the fault-injection table behind the
/// partial-failure workflow tests. Mirrors how the real service reports
/// application errors: through the profile, never through the transport.
pub fn zoom2_failure_table(trip: FailOnce) -> ServiceTable {
    let mut t = ServiceTable::init(2);
    let z1: SolveFn = Arc::new(solve_ramses_zoom1);
    let z2: SolveFn = Arc::new(move |p: &mut Profile| {
        if trip.trip() {
            p.set(
                7,
                DietValue::File {
                    name: "zoom2_results.tar".into(),
                    data: Bytes::new(),
                },
                Persistence::Volatile,
            )?;
            p.set(
                8,
                DietValue::ScalarI32(status::BAD_ZOOM),
                Persistence::Volatile,
            )?;
            return Ok(0);
        }
        solve_ramses_zoom2(p)
    });
    t.add(ramses_zoom1_desc(), z1).expect("table size 2");
    t.add(ramses_zoom2_desc(), z2).expect("table size 2");
    t
}

/// Like [`cosmology_service_table`], but the solve functions also write each
/// result tarball into `workdir` before returning it — the paper's NFS
/// working-directory behaviour ("the results of the simulation are packed
/// into a tarball file" on the cluster's shared volume, then served to DIET
/// via `diet_file_set`). Write failures are reported through the service
/// error code, not a middleware error.
pub fn cosmology_service_table_with_workdir(workdir: std::path::PathBuf) -> ServiceTable {
    std::fs::create_dir_all(&workdir).ok();
    let mut t = ServiceTable::init(2);
    let d1 = workdir.clone();
    let z1: SolveFn = Arc::new(move |p: &mut Profile| {
        let rc = solve_ramses_zoom1(p)?;
        persist_out_file(p, 2, &d1);
        Ok(rc)
    });
    let d2 = workdir;
    let z2: SolveFn = Arc::new(move |p: &mut Profile| {
        let rc = solve_ramses_zoom2(p)?;
        persist_out_file(p, 7, &d2);
        Ok(rc)
    });
    t.add(ramses_zoom1_desc(), z1).expect("table size 2");
    t.add(ramses_zoom2_desc(), z2).expect("table size 2");
    t
}

/// Write the OUT file argument (if present) into the working directory with
/// a unique name; best-effort — the in-memory result is authoritative.
fn persist_out_file(p: &Profile, index: usize, dir: &std::path::Path) {
    if let Ok((name, data)) = p.get_file(index) {
        let unique = format!(
            "{}_{}_{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        );
        let _ = std::fs::write(dir.join(unique), data);
    }
}

/// Build a ready-to-send `ramsesZoom1` profile.
pub fn zoom1_profile(namelist: &Namelist, resolution: i32) -> Profile {
    let d = ramses_zoom1_desc();
    let mut p = Profile::alloc(&d);
    p.set(
        0,
        DietValue::File {
            name: "ramses.nml".into(),
            data: Bytes::from(namelist.render()),
        },
        Persistence::Volatile,
    )
    .unwrap();
    p.set(1, DietValue::ScalarI32(resolution), Persistence::Volatile)
        .unwrap();
    p
}

/// Build a ready-to-send `ramsesZoom2` profile — the paper's nine arguments.
pub fn zoom2_profile(
    namelist: &Namelist,
    resolution: i32,
    size_mpc_h: i32,
    center_pct: [i32; 3],
    nb_box: i32,
) -> Profile {
    let d = ramses_zoom2_desc();
    let mut p = Profile::alloc(&d);
    p.set(
        0,
        DietValue::File {
            name: "ramses.nml".into(),
            data: Bytes::from(namelist.render()),
        },
        Persistence::Volatile,
    )
    .unwrap();
    let scalars = [
        (1, resolution),
        (2, size_mpc_h),
        (3, center_pct[0]),
        (4, center_pct[1]),
        (5, center_pct[2]),
        (6, nb_box),
    ];
    for (i, v) in scalars {
        p.set(i, DietValue::ScalarI32(v), Persistence::Volatile)
            .unwrap();
    }
    p
}

/// Like [`zoom2_profile`], but the shared namelist/IC file — identical
/// across all 100 sub-simulations of the campaign — travels as a
/// `Persistent` grid-data reference instead of an inline payload: the client
/// stores it once (`store_data` / `PutData`) and every zoom request carries
/// only the id. SeDs that don't hold it pull it from a replica holder
/// SeD-to-SeD through the catalog.
pub fn zoom2_profile_ref(
    namelist_id: &str,
    resolution: i32,
    size_mpc_h: i32,
    center_pct: [i32; 3],
    nb_box: i32,
) -> Profile {
    let d = ramses_zoom2_desc();
    let mut p = Profile::alloc(&d);
    p.set(0, DietValue::data_ref(namelist_id), Persistence::Persistent)
        .unwrap();
    let scalars = [
        (1, resolution),
        (2, size_mpc_h),
        (3, center_pct[0]),
        (4, center_pct[1]),
        (5, center_pct[2]),
        (6, nb_box),
    ];
    for (i, v) in scalars {
        p.set(i, DietValue::ScalarI32(v), Persistence::Volatile)
            .unwrap();
    }
    p
}

/// The namelist rendered as the `DietValue` the campaign stores on the grid
/// (the payload behind [`zoom2_profile_ref`]'s id).
pub fn namelist_value(namelist: &Namelist) -> DietValue {
    DietValue::File {
        name: "ramses.nml".into(),
        data: Bytes::from(namelist.render()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namelist::default_run_namelist;

    fn quick_namelist() -> Namelist {
        let mut nl = default_run_namelist(8, 50.0);
        nl.set("INIT_PARAMS", "aexp_ini", 0.1);
        nl.set("OUTPUT_PARAMS", "aout", "0.5, 1.0");
        nl
    }

    #[test]
    fn zoom1_runs_and_produces_catalog() {
        let mut p = zoom1_profile(&quick_namelist(), 8);
        let rc = solve_ramses_zoom1(&mut p).unwrap();
        assert_eq!(rc, 0);
        assert_eq!(p.get_i32(3).unwrap(), status::OK);
        let (_, tar) = p.get_file(2).unwrap();
        let entries = archive::unpack(&tar.clone()).unwrap();
        let cat = archive::find(&entries, "halos/catalog.txt").unwrap();
        let text = String::from_utf8_lossy(&cat.data);
        assert!(text.starts_with("# id npart"));
        assert!(text.lines().count() > 1, "no halos found in zoom1: {text}");
        assert!(archive::find(&entries, "snapshots/final.bin").is_some());
    }

    #[test]
    fn zoom1_rejects_bad_resolution_via_error_code() {
        let mut p = zoom1_profile(&quick_namelist(), 12); // not a power of two
        assert_eq!(solve_ramses_zoom1(&mut p).unwrap(), 0);
        assert_eq!(p.get_i32(3).unwrap(), status::BAD_RESOLUTION);
    }

    #[test]
    fn zoom1_rejects_garbage_namelist() {
        let d = ramses_zoom1_desc();
        let mut p = Profile::alloc(&d);
        p.set(
            0,
            DietValue::File {
                name: "bad.nml".into(),
                data: Bytes::from_static(b"x = 1"),
            },
            Persistence::Volatile,
        )
        .unwrap();
        p.set(1, DietValue::ScalarI32(8), Persistence::Volatile)
            .unwrap();
        assert_eq!(solve_ramses_zoom1(&mut p).unwrap(), 0);
        assert_eq!(p.get_i32(3).unwrap(), status::BAD_NAMELIST);
    }

    #[test]
    fn zoom2_full_pipeline_outputs_all_catalogs() {
        let mut p = zoom2_profile(&quick_namelist(), 8, 50, [50, 50, 50], 2);
        let rc = solve_ramses_zoom2(&mut p).unwrap();
        assert_eq!(rc, 0);
        assert_eq!(p.get_i32(8).unwrap(), status::OK);
        let (_, tar) = p.get_file(7).unwrap();
        let entries = archive::unpack(&tar.clone()).unwrap();
        for name in [
            "halos/catalog.txt",
            "tree/mergertree.txt",
            "galaxies/catalog.txt",
            "snapshots/final.bin",
        ] {
            assert!(archive::find(&entries, name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn zoom2_rejects_bad_zoom_params() {
        let mut p = zoom2_profile(&quick_namelist(), 8, 50, [150, 50, 50], 2);
        assert_eq!(solve_ramses_zoom2(&mut p).unwrap(), 0);
        assert_eq!(p.get_i32(8).unwrap(), status::BAD_ZOOM);

        let mut p = zoom2_profile(&quick_namelist(), 8, 50, [50, 50, 50], 0);
        assert_eq!(solve_ramses_zoom2(&mut p).unwrap(), 0);
        assert_eq!(p.get_i32(8).unwrap(), status::BAD_ZOOM);
    }

    #[test]
    fn zoom1_with_hydro_component() {
        // `hydro = .true.` runs the coupled N-body + Euler solver; the
        // result contract is unchanged.
        let mut nl = quick_namelist();
        nl.set("RUN_PARAMS", "hydro", ".true.");
        // Short run: the hydro sub-cycling makes full-length runs expensive
        // in the test profile; the coupling path is fully exercised anyway.
        nl.set("OUTPUT_PARAMS", "aout", "0.2");
        let mut p = zoom1_profile(&nl, 8);
        assert_eq!(solve_ramses_zoom1(&mut p).unwrap(), 0);
        // At a_end = 0.2 halos may not exist yet; OK or NO_HALOS are both
        // valid contract outcomes here — what matters is the run completed.
        let code = p.get_i32(3).unwrap();
        assert!(
            code == status::OK || code == status::NO_HALOS,
            "code {code}"
        );
        let (_, tar) = p.get_file(2).unwrap();
        assert!(!tar.is_empty() || code == status::NO_HALOS);
    }

    #[test]
    fn workdir_table_writes_result_tarballs() {
        let dir = std::env::temp_dir().join(format!("cosmogrid_nfs_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let t = cosmology_service_table_with_workdir(dir.clone());
        assert!(t.declares("ramsesZoom1"));
        // Run the zoom1 solve through the table's wrapped function.
        let (_, solve) = t.lookup("ramsesZoom1").unwrap();
        let mut p = zoom1_profile(&quick_namelist(), 8);
        assert_eq!(solve(&mut p).unwrap(), 0);
        assert_eq!(p.get_i32(3).unwrap(), status::OK);
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "expected one tarball in the working dir");
        let path = files[0].as_ref().unwrap().path();
        assert!(path.to_string_lossy().contains("zoom1_results.tar"));
        // The on-disk tar is the same bytes the client received.
        let on_disk = std::fs::read(&path).unwrap();
        let (_, in_memory) = p.get_file(2).unwrap();
        assert_eq!(&on_disk[..], &in_memory[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn service_table_declares_both_services() {
        let t = cosmology_service_table();
        assert!(t.declares("ramsesZoom1"));
        assert!(t.declares("ramsesZoom2"));
        assert_eq!(t.len(), 2);
    }
}
