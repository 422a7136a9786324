//! `hot_filters`: the four Table 1 filters, specialized during set-up,
//! served in 64-packet batches (half telnet) round-robin through a
//! one-worker pool, one batch outstanding. Bound by dispatch: no front
//! end, generator, store or wire on the timed path.

use crate::report::Report;
use crate::serve::{self, Request, Source, Tenant};
use crate::trace::Tracer;
use crate::Env;
use mlbox::CompiledFilter;
use mlbox_bpf::{chain_filter, multi_port_filter, port_filter, telnet_filter, PacketGen};
use mlbox_serve::{PoolConfig, ServePool};
use std::sync::Arc;

pub const BATCH: usize = 64;
/// Distinct batches in the request cycle.
pub const CYCLE: usize = 256;
const TELNET_SHARE: f64 = 0.5;

/// The Table 1 filters: `accept_telnet`, `accept_port_80`,
/// `accept_ports_22_23_80`, `chain_8`.
pub fn filters() -> Vec<Vec<mlbox_bpf::Insn>> {
    vec![
        telnet_filter(),
        port_filter(80),
        multi_port_filter(&[22, 23, 80]),
        chain_filter(8),
    ]
}

/// The request cycle for `seed`: batch `i` goes to filter `i % 4`.
pub fn cycle(seed: u64) -> Vec<Request> {
    let mut gen = PacketGen::new(seed ^ 0x686f_7466);
    (0..CYCLE)
        .map(|i| Request::new(i % 4, gen.workload(BATCH, TELNET_SHARE)))
        .collect()
}

pub struct Hot {
    pub tenants: Vec<Tenant>,
    pub artifacts: Vec<Arc<CompiledFilter>>,
    pub cycle: Vec<Request>,
    pub pool: ServePool,
}

/// Specializes the filters, computes every batch's reference outputs,
/// and warms a one-worker pool with one batch per filter.
pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Hot, String> {
    let tenants: Vec<Tenant> = filters().into_iter().map(Tenant::new).collect();
    let mut cycle = cycle(seed);
    let mut artifacts = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let artifact = serve::specialize(&tenant.filter, tr)?;
        let mut mine: Vec<&mut Request> = cycle.iter_mut().filter(|r| r.tenant == t).collect();
        serve::expect(tenant, &artifact, &mut mine)?;
        artifacts.push(Arc::new(artifact));
    }
    let pool = ServePool::new(PoolConfig {
        workers: 1,
        queue_depth: 2,
        cache_capacity: 16,
        ..PoolConfig::default()
    });
    serve::warm(&pool, &tenants, &cycle[..tenants.len()])?;
    Ok(Hot {
        tenants,
        artifacts,
        cycle,
        pool,
    })
}

pub fn run(env: &Env) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(env.trace);
    let hot = setup(env.seed, &mut tr).and_then(|hot| {
        if env.trace {
            serve::harness_layers(&hot.tenants, &mut tr)?;
            serve::store_probe(&hot.artifacts, &env.scratch("probe-store"), 8, &mut tr)?;
        }
        Ok(hot)
    });
    let hot = match hot {
        Ok(h) => h,
        Err(e) => {
            report.errors.push(e);
            return report;
        }
    };
    env.ready();
    if !env.setup_only {
        let source = Source::Prebuilt(&hot.artifacts);
        serve::measure(
            env,
            hot.pool,
            &hot.tenants,
            &hot.cycle,
            16,
            source,
            &mut tr,
            &mut report,
        );
    }
    report
}
