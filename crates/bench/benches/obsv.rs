//! Micro-benchmarks of the live observability plane: record-path cost
//! (sketch + window + SLO tallies per completion) and a hard
//! zero-allocation check over a full served run with the plane, its
//! sliding windows, and the metrics endpoint all attached.
//!
//! Run with `cargo bench --bench obsv`. The allocation check exits
//! non-zero if the plane's hot path ever touches the heap, so CI can
//! use this bench as a regression gate. Plane *construction*
//! (preallocated ring, sketches, event buffer) may allocate; feeding it
//! may not. The endpoint is attached but not scraped during the
//! measured region (scrapes are off the hot path by design and allocate
//! freely while rendering).

use oram_bench::{bench, CountingAlloc};
use oram_obsv::{http_get, FlightConfig, LiveConfig, LivePlane, MetricsServer};
use oram_service::{SchedPolicy, ServiceConfig, ShardedServiceSim};
use oram_sim::{ShardedOram, SystemConfig};
use oram_util::ServeClass;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A one-shard backend: the engine runs on the service thread, so the
/// plane can take its telemetry directly.
fn one_shard() -> ShardedOram {
    let mut b = ShardedOram::new(SystemConfig::small_test(), 1, 1).expect("valid config");
    b.prefill_working_set(512);
    b
}

fn plane_record_throughput() {
    println!("-- plane record path (sketch + window + SLO tallies) --");
    let plane = LivePlane::shared(LiveConfig::for_serve(4, 1, 1_000, 100));
    let mut g = plane.lock().expect("plane lock");
    let mut i = 0u64;
    let r = bench("plane_record/request_complete", 20, 10_000, || {
        use oram_util::LiveObserver;
        i += 937;
        g.request_complete(i, (i % 4) as u32, 0, ServeClass::DramReal, 500 + i % 4_000, false);
        black_box(i)
    });
    println!("{r}");
}

/// The zero-allocation claim for the tentpole: a full generated service
/// run with the live plane fed from both sides (engine telemetry tee
/// target + service completion observer), the flight recorder attached
/// (its rings capture every span, window, and service event on the hot
/// path), and the metrics endpoint bound must perform **zero**
/// allocator calls after setup.
fn live_plane_allocation_check() -> bool {
    println!("-- live plane steady-state allocation check --");
    let mut ok = true;
    for policy in SchedPolicy::ALL {
        // Warm the engine off the books, as the service bench does.
        let mut backend = one_shard();
        let mut i = 0u64;
        for step in 0..4000u64 {
            i = (i + 17) % 512;
            black_box(backend.serve_request(i, step.is_multiple_of(5), 0));
        }

        // Construction preallocates the window ring, the sketches, the
        // bounded event buffer, and the flight recorder's four rings —
        // allowed to allocate. Recording into them is not.
        let plane = LivePlane::shared(LiveConfig::for_serve(4, 1, 400, 100));
        plane.lock().expect("plane lock").attach_flight(FlightConfig::default());
        backend.engine_mut(0).attach_telemetry(LivePlane::as_sink(&plane), 50_000);
        let mut cfg = ServiceConfig::symmetric_open(4, 2_500, 400.0, 512, 11);
        cfg.scheduler = policy;
        let mut sim = ShardedServiceSim::new(cfg, backend).expect("valid config");
        sim.attach_live(LivePlane::as_live(&plane));
        // Endpoint attached (accept thread parked) but not scraped
        // inside the measured region. Probe /healthz before snapshotting
        // the counter so the accept thread's startup allocations cannot
        // race into the measured region on a busy box.
        let server = MetricsServer::start("127.0.0.1:0", plane.clone()).expect("bind");
        let (status, _) = http_get(server.local_addr(), "/healthz").expect("probe");
        assert!(status.contains("200"), "{status}");

        let before = ALLOC.allocations();
        sim.run();
        {
            let mut p = plane.lock().expect("plane lock");
            p.flush();
        }
        let delta = ALLOC.allocations() - before;

        let (res, _) = sim.finish();
        assert_eq!(res.completed() + res.rejected(), 10_000, "{}", policy.name());
        {
            let p = plane.lock().expect("plane lock");
            p.validate_conservation().expect("plane conserves");
            assert_eq!(p.total().completed, res.completed(), "{}", policy.name());
        }
        // A post-run scrape still answers (render allocates — that is
        // fine, it is outside the measured region).
        let (status, body) = http_get(server.local_addr(), "/metrics").expect("scrape");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("oram_requests_completed_total"), "{body}");
        server.shutdown();

        let verdict = if delta == 0 { "OK" } else { "FAIL" };
        println!(
            "live_plane_allocs/{:<12} {delta:>6} allocs in 10k requests  [{verdict}]",
            policy.name()
        );
        ok &= delta == 0;
    }
    ok
}

fn main() {
    plane_record_throughput();
    if !live_plane_allocation_check() {
        eprintln!("live plane hot path allocated — zero-allocation regression");
        std::process::exit(1);
    }
}
