//! Set-up shared by the timed and the traced run: generate and register
//! the data set, resolve the pool against `expected.tsv`, and the
//! verified warm-up pass.

use std::sync::Arc;
use std::time::Instant;

use bypass_core::{Database, RunLimits, Strategy};
use bypass_datagen::{rst, tpch};
use bypass_service::{QueryService, ServiceConfig, SessionQuotas};
use bypass_types::Relation;

use crate::oracle::{self, Digest, Expected};
use crate::workloads::{Data, Statement, Workload, DATA_SEED};

/// Seed of the service's retry-jitter streams (pinned; no retry is
/// expected on any workload).
const SERVICE_SEED: u64 = 0x00BE_7C11;

pub struct Env {
    pub db: Arc<Database>,
    pub generate_s: f64,
    pub register_s: f64,
    pub dataset: Digest,
}

/// Generate the data set and register it in a fresh database.
pub fn build(data: &Data) -> Result<Env, String> {
    let t = Instant::now();
    let rst = data.rst.map(|sf| rst::generate(sf, sf, DATA_SEED));
    let tpch = data.tpch.map(|sf| tpch::generate(sf, DATA_SEED));
    let generate_s = t.elapsed().as_secs_f64();

    let mut tables: Vec<(&str, &Relation)> = Vec::new();
    if let Some(i) = &rst {
        tables.extend([("r", &i.r), ("s", &i.s), ("t", &i.t)]);
    }
    if let Some(i) = &tpch {
        tables.extend([
            ("region", &i.region),
            ("nation", &i.nation),
            ("supplier", &i.supplier),
            ("part", &i.part),
            ("partsupp", &i.partsupp),
            ("customer", &i.customer),
            ("orders", &i.orders),
            ("lineitem", &i.lineitem),
        ]);
    }
    let dataset = oracle::dataset_digest(tables);

    let t = Instant::now();
    let mut db = Database::new();
    if let Some(i) = &rst {
        rst::register(db.catalog_mut(), i).map_err(|e| format!("register rst: {e}"))?;
    }
    if let Some(i) = &tpch {
        tpch::register(db.catalog_mut(), i).map_err(|e| format!("register tpch: {e}"))?;
    }
    let register_s = t.elapsed().as_secs_f64();

    Ok(Env {
        db: Arc::new(db),
        generate_s,
        register_s,
        dataset,
    })
}

pub fn service(db: &Arc<Database>, strategy: Strategy) -> QueryService {
    let cfg = ServiceConfig {
        seed: SERVICE_SEED,
        ..ServiceConfig::default()
    };
    QueryService::new(Arc::clone(db), strategy, cfg)
}

/// A pool statement with its pinned expectation.
#[derive(Debug, Clone)]
pub struct PoolStmt {
    pub class: usize,
    pub sql: String,
    pub want: Digest,
}

pub fn resolve_pool(w: &Workload, expected: &Expected) -> Result<Vec<PoolStmt>, String> {
    let id = w.data.id();
    w.pool()
        .into_iter()
        .map(|Statement { class, sql }| {
            let want = expected.statement(&id, &sql).map_err(|e| e.to_string())?;
            Ok(PoolStmt { class, sql, want })
        })
        .collect()
}

/// The one public call a statement of this workload goes through.
pub enum Client<'a> {
    Direct(&'a Database, Strategy),
    Session(bypass_service::Session),
}

impl Client<'_> {
    pub fn execute(&self, sql: &str) -> bypass_types::Result<Relation> {
        match self {
            Client::Direct(db, strategy) => db
                .run_governed(sql, *strategy, &RunLimits::default())
                .map(|(rel, _)| rel),
            Client::Session(session) => session.execute(sql).map(|r| r.rows),
        }
    }
}

/// Run every pool statement once and check the full bag hash.
pub fn warm_up(client: &Client<'_>, pool: &[PoolStmt]) -> Result<(), String> {
    for stmt in pool {
        let rel = client
            .execute(&stmt.sql)
            .map_err(|e| format!("warm-up failed: {e} for {}", stmt.sql))?;
        oracle::check_result(&stmt.sql, stmt.want, &rel).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Everything that precedes the first timed statement: generate the data
/// set and check its hash, register it, resolve the pool, build the
/// service if the workload has one, and the verified warm-up pass through
/// the workload's own public call.
pub fn set_up(
    w: &Workload,
    expected: &Expected,
) -> Result<(Env, Vec<PoolStmt>, Option<QueryService>), String> {
    let env = build(&w.data)?;
    expected
        .check_dataset(&w.data.id(), env.dataset)
        .map_err(|e| e.to_string())?;
    let pool = resolve_pool(w, expected)?;
    let service = (w.clients > 1).then(|| service(&env.db, w.strategy));
    let client = match &service {
        Some(svc) => Client::Session(svc.session(SessionQuotas::default())),
        None => Client::Direct(&env.db, w.strategy),
    };
    warm_up(&client, &pool)?;
    drop(client);
    Ok((env, pool, service))
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
