//! `tenant_churn`: about a thousand distinct tenant filters, compiled and
//! saved to an artifact store during set-up, then requested in tiny
//! batches with Zipf-skewed popularity through a one-worker pool whose
//! store-backed cache is much smaller than the tenant count. Bound by
//! the miss path: cache → store load → wire decode (→ hydrate on a
//! worker's first sight of a tenant).

use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::serve::{self, Request, Source, Tenant};
use crate::trace::Tracer;
use crate::Env;
use mlbox_bpf::{chain_filter, multi_port_filter, port_filter, PacketGen};
use mlbox_serve::{ArtifactStore, PoolConfig, ServePool};
use std::collections::HashSet;
use std::sync::Arc;

pub const TENANTS: usize = 1024;
/// Specialization-cache capacity: far below the tenant count, so most
/// requests take the miss path.
pub const CACHE: usize = 16;
/// Popularity skew (Zipf exponent over popularity ranks).
pub const SKEW: f64 = 0.8;
/// Requests in the cycle, each of 1–2 packets: few enough that the miss
/// path, not dispatch, takes most of a request.
pub const CYCLE: usize = 8192;
const TELNET_SHARE: f64 = 0.0;
/// Tenants whose set-up sources the traced run replays through the front
/// end.
const FRONT_SAMPLE: usize = 16;

/// The tenant filters, most popular first. The family and size of each
/// popularity rank are fixed (so every seed asks for the same work);
/// the seed picks the ports.
pub fn tenants(seed: u64) -> Vec<Tenant> {
    let mut rng = Rng::new(seed, 1);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(TENANTS);
    let mut chains = 0;
    while out.len() < TENANTS {
        let rank = out.len();
        let filter = match rank % 32 {
            0..=7 => port_filter(rng.range(1, 65535) as u16),
            8..=30 => {
                let ports: Vec<u16> = (0..16 + rank % 33)
                    .map(|_| rng.range(1, 65535) as u16)
                    .collect();
                multi_port_filter(&ports)
            }
            _ => {
                // 32 chain tenants, lengths 8..=39 in a fixed order.
                chains += 1;
                chain_filter(8 + (chains * 13) % 32)
            }
        };
        let tenant = Tenant::new(filter);
        if seen.insert(tenant.fingerprint()) {
            out.push(tenant);
        }
    }
    out
}

/// The request cycle: Zipf-ranked tenant, 1–2 packets.
pub fn cycle(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 2);
    let zipf = Zipf::new(TENANTS, SKEW);
    let mut gen = PacketGen::new(seed ^ 0x6368_7572);
    (0..CYCLE)
        .map(|_| {
            let tenant = zipf.sample(&mut rng);
            let n = 1 + rng.below(2) as usize;
            Request::new(tenant, gen.workload(n, TELNET_SHARE))
        })
        .collect()
}

pub struct Churn {
    pub tenants: Vec<Tenant>,
    pub cycle: Vec<Request>,
    pub store: Arc<ArtifactStore>,
    pub pool: ServePool,
}

/// Compiles and saves every tenant (the cold-start cost `setup_s`
/// reports), computing each request's reference outputs on the way, then
/// sends the request cycle once through a fresh store-backed pool. A
/// pool worker hydrates a tenant on first sight and keeps it, so this
/// pass takes the hydrations off the timed path: left there, they are
/// about 1% of requests and set the p99 by how many fall in the window.
pub fn setup(env: &Env, tr: &mut Tracer) -> Result<Churn, String> {
    let tenants = tenants(env.seed);
    let mut cycle = cycle(env.seed);
    let store = ArtifactStore::open(env.scratch("store")).map_err(|e| e.to_string())?;
    let mut by_tenant: Vec<Vec<&mut Request>> = (0..TENANTS).map(|_| Vec::new()).collect();
    for req in &mut cycle {
        by_tenant[req.tenant].push(req);
    }
    for (tenant, mine) in tenants.iter().zip(&mut by_tenant) {
        let artifact = serve::specialize(&tenant.filter, tr)?;
        tr.begin("serve.store.save");
        let saved = store.save(&artifact).map_err(|e| e.to_string());
        tr.end("serve.store.save");
        saved?;
        serve::expect(tenant, &artifact, mine)?;
    }
    let store = Arc::new(store);
    let pool = ServePool::new(PoolConfig {
        workers: 1,
        queue_depth: 2,
        cache_capacity: CACHE,
        store: Some(Arc::clone(&store)),
        ..PoolConfig::default()
    });
    serve::warm(&pool, &tenants, &cycle)?;
    Ok(Churn {
        tenants,
        cycle,
        store,
        pool,
    })
}

pub fn run(env: &Env) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(env.trace);
    let churn = setup(env, &mut tr).and_then(|churn| {
        if env.trace {
            serve::harness_layers(&churn.tenants[..FRONT_SAMPLE], &mut tr)?;
        }
        Ok(churn)
    });
    let churn = match churn {
        Ok(c) => c,
        Err(e) => {
            report.errors.push(e);
            return report;
        }
    };
    env.ready();
    if !env.setup_only {
        let source = Source::Store(&churn.store);
        serve::measure(
            env,
            churn.pool,
            &churn.tenants,
            &churn.cycle,
            CACHE,
            source,
            &mut tr,
            &mut report,
        );
    }
    report
}
