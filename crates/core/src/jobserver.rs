//! Durable campaign jobserver: a crash-recoverable task queue in front of
//! the MA hierarchy.
//!
//! The paper's zoom campaigns are long: part 1 plus one part-2 run per
//! detected halo, times hundreds of parameter points. The in-memory
//! campaign driver loses everything when the submitting process dies, so
//! this module adds the batch-queue layer every production middleware
//! grows: a standalone process ([`JobServer`], served by
//! [`serve_jobserver_over_tcp`] or the `diet_jobserver` binary) that
//! accepts campaign submissions over the wire, owns the per-task state
//! machine (`Pending → Dispatched → Done | Failed{attempt}`), and drives
//! execution through the existing machinery — finding via the MA
//! hierarchy's `Submit`, solving via the [`TcpSedPool`], DAG payloads via
//! the MA's workflow engine.
//!
//! # Durability
//!
//! Every state transition is appended to a write-ahead log before it is
//! applied: CRC-framed records (`[u32 len][u32 crc32][payload]`, payload
//! led by a monotone LSN) in `wal.log` under the server's data directory.
//! Periodically the whole store is compacted into `snapshot.bin`
//! (written to a temp file, fsynced, atomically renamed) and the log is
//! truncated; the snapshot remembers the last LSN it absorbed so a crash
//! between rename and truncate replays no record twice. On startup the
//! server loads the snapshot, replays the log tail — tolerating a torn
//! final record, which is truncated away — and re-queues any task that
//! was `Dispatched` when the process died. `Done` work is never
//! recomputed.
//!
//! The log is flushed (not fsynced) per record: the tested failure mode
//! is process death (`kill -9`), which the OS page cache survives.
//! Power-loss durability would want an `fsync` knob; the experiment in
//! `exp_jobserver` kills the process, not the host.
//!
//! # Clients
//!
//! Any number of [`JobClient`]s attach to a campaign by name
//! ([`Message::AttachCampaign`]) and poll a resumable event cursor
//! ([`Message::CampaignProgress`]); submission is idempotent by campaign
//! name, so a client that dies mid-submit can simply resubmit and be
//! handed the existing campaign.

use crate::client::RetryPolicy;
use crate::codec::{self, Message};
use crate::dag::WorkflowSpec;
use crate::error::DietError;
use crate::hierarchy::RemoteAgentClient;
use crate::profile::Profile;
use crate::retry::{classify, Fault, Resubmit};
use crate::transport::{Duplex, MuxConn, ServerConfig, TcpSedPool, TcpServer, TcpTransport};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use obs::Obs;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

// ------------------------------------------------------------------- types

/// Lifecycle of one task in a campaign. Transitions are logged before
/// they are applied; the numeric values are the wire/WAL encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TaskState {
    /// Queued, waiting for a dispatcher (also the re-queued state after a
    /// failed attempt or a dead-SeD recovery).
    Pending = 0,
    /// Handed to the hierarchy: a dispatcher resolved a SeD and is
    /// waiting on the solve.
    Dispatched = 1,
    /// Solve succeeded; the task will never run again.
    Done = 2,
    /// Terminally failed (attempt budget exhausted or a non-retryable
    /// rejection).
    Failed = 3,
}

impl TaskState {
    pub fn from_u8(v: u8) -> Option<TaskState> {
        match v {
            0 => Some(TaskState::Pending),
            1 => Some(TaskState::Dispatched),
            2 => Some(TaskState::Done),
            3 => Some(TaskState::Failed),
            _ => None,
        }
    }
}

/// What a task executes: a single GridRPC call resolved through the MA,
/// or a whole workflow DAG admitted into the MA's engine (the multi-stage
/// task shape — part-1-then-fan-out as one queue entry).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskPayload {
    Call(Profile),
    Dag(WorkflowSpec),
}

impl TaskPayload {
    /// Service name shown in status rows ("dag:<name>" for workflows).
    pub fn service(&self) -> String {
        match self {
            TaskPayload::Call(p) => p.service.clone(),
            TaskPayload::Dag(s) => format!("dag:{}", s.name),
        }
    }
}

/// One entry in a campaign's progress feed: a state transition with the
/// monotone per-campaign sequence number clients use as a poll cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskEventRec {
    pub seq: u64,
    pub task_id: u64,
    pub state: TaskState,
    /// Dispatch attempts so far (after this transition applied).
    pub attempt: u32,
    /// SeD label involved ("" when none — e.g. a failure before resolve).
    pub sed: String,
    /// Solve duration for `Done` (milliseconds); 0 otherwise.
    pub ms: u64,
}

/// Aggregate view of a campaign, returned by attach and every progress
/// poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    pub campaign_id: u64,
    pub name: String,
    pub total: u64,
    pub done: u64,
    pub failed: u64,
    /// Dispatches beyond each task's first — the live analogue of the
    /// simulator's resubmission count.
    pub resubmissions: u64,
    /// Every task reached a terminal state.
    pub finished: bool,
}

/// Point-in-time status of a single task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskStatusRec {
    pub task_id: u64,
    pub state: TaskState,
    pub attempts: u32,
    pub sed: String,
}

// ------------------------------------------------------------------- crc32

/// CRC-32 (IEEE, reflected, poly 0xEDB88320) — the framing checksum for
/// WAL records and the snapshot body. Table built on first use.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------- job log

/// Append-only CRC-framed record log. Each record is
/// `[u32 len][u32 crc32(payload)][payload]`, little-endian. Reading stops
/// at the first short or corrupt record (a torn tail from a crash), and
/// [`JobLog::open`] truncates the file back to the last good boundary so
/// fresh appends never follow garbage.
pub struct JobLog {
    file: File,
    path: PathBuf,
    records: u64,
}

/// Records larger than this are rejected on append and treated as
/// corruption on read — a length-field bit flip must not allocate gigabytes.
pub const MAX_WAL_RECORD: usize = 64 << 20;

impl JobLog {
    /// Open (creating if absent) the log at `path`, scan it, truncate any
    /// torn tail, and position for appending. Returns the log plus the
    /// records that survived the scan.
    pub fn open(path: impl Into<PathBuf>) -> Result<(JobLog, Vec<Vec<u8>>), DietError> {
        let path = path.into();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                return Err(DietError::Transport(format!(
                    "read {}: {e}",
                    path.display()
                )))
            }
        };
        let (records, good_len) = scan_records(&bytes);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| DietError::Transport(format!("open {}: {e}", path.display())))?;
        file.set_len(good_len)
            .and_then(|_| file.seek(SeekFrom::End(0)))
            .map_err(|e| DietError::Transport(format!("truncate {}: {e}", path.display())))?;
        let n = records.len() as u64;
        Ok((
            JobLog {
                file,
                path,
                records: n,
            },
            records,
        ))
    }

    /// Append one record (length + CRC framing) and flush it to the OS.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DietError> {
        if payload.len() > MAX_WAL_RECORD {
            return Err(DietError::Rejected(format!(
                "wal record of {} bytes exceeds the {} byte cap",
                payload.len(),
                MAX_WAL_RECORD
            )));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .and_then(|_| self.file.flush())
            .map_err(|e| DietError::Transport(format!("wal append: {e}")))?;
        self.records += 1;
        Ok(())
    }

    /// Records appended (or recovered) through this handle's lifetime.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Truncate the log to empty — called right after a snapshot absorbed
    /// everything. A crash before this truncate is safe: replay skips
    /// records at or below the snapshot's LSN.
    pub fn reset(&mut self) -> Result<(), DietError> {
        self.file
            .set_len(0)
            .and_then(|_| self.file.seek(SeekFrom::Start(0)))
            .map_err(|e| DietError::Transport(format!("wal reset: {e}")))?;
        self.records = 0;
        Ok(())
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parse `[len][crc][payload]` frames out of `bytes`; stop at the first
/// short, oversized, or CRC-mismatching record. Returns the good records
/// and the byte offset just past the last one.
pub fn scan_records(bytes: &[u8]) -> (Vec<Vec<u8>>, u64) {
    let mut records = Vec::new();
    let mut off = 0usize;
    while bytes.len() - off >= 8 {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        if len > MAX_WAL_RECORD || bytes.len() - off - 8 < len {
            break;
        }
        let payload = &bytes[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        records.push(payload.to_vec());
        off += 8 + len;
    }
    (records, off as u64)
}

// -------------------------------------------------------------- wal records

/// One logged mutation. `Transition.attempts` is the absolute value after
/// the transition (not a delta), so replay is insensitive to how the
/// attempt was produced.
#[derive(Debug, Clone, PartialEq)]
enum WalRec {
    CampaignCreate {
        cid: u64,
        name: String,
    },
    TaskAdd {
        cid: u64,
        tid: u64,
        payload: TaskPayload,
    },
    Transition {
        cid: u64,
        tid: u64,
        state: TaskState,
        attempts: u32,
        sed: String,
        ms: u64,
        note: String,
    },
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, DietError> {
    if buf.remaining() < 4 {
        return Err(DietError::Codec("truncated wal string length".into()));
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n {
        return Err(DietError::Codec("truncated wal string body".into()));
    }
    let raw = buf.copy_to_bytes(n);
    String::from_utf8(raw.to_vec()).map_err(|e| DietError::Codec(format!("wal utf8: {e}")))
}

fn encode_wal_rec(lsn: u64, rec: &WalRec) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u64_le(lsn);
    match rec {
        WalRec::CampaignCreate { cid, name } => {
            buf.put_u8(1);
            buf.put_u64_le(*cid);
            put_str(&mut buf, name);
        }
        WalRec::TaskAdd { cid, tid, payload } => {
            buf.put_u8(2);
            buf.put_u64_le(*cid);
            buf.put_u64_le(*tid);
            codec::encode_task_payload(&mut buf, payload);
        }
        WalRec::Transition {
            cid,
            tid,
            state,
            attempts,
            sed,
            ms,
            note,
        } => {
            buf.put_u8(3);
            buf.put_u64_le(*cid);
            buf.put_u64_le(*tid);
            buf.put_u8(*state as u8);
            buf.put_u32_le(*attempts);
            put_str(&mut buf, sed);
            buf.put_u64_le(*ms);
            put_str(&mut buf, note);
        }
    }
    buf.to_vec()
}

fn decode_wal_rec(payload: &[u8]) -> Result<(u64, WalRec), DietError> {
    let mut buf = Bytes::copy_from_slice(payload);
    if buf.remaining() < 9 {
        return Err(DietError::Codec("short wal record".into()));
    }
    let lsn = buf.get_u64_le();
    let kind = buf.get_u8();
    let need_u64 = |buf: &mut Bytes| -> Result<u64, DietError> {
        if buf.remaining() < 8 {
            Err(DietError::Codec("truncated wal u64".into()))
        } else {
            Ok(buf.get_u64_le())
        }
    };
    let rec = match kind {
        1 => WalRec::CampaignCreate {
            cid: need_u64(&mut buf)?,
            name: get_str(&mut buf)?,
        },
        2 => WalRec::TaskAdd {
            cid: need_u64(&mut buf)?,
            tid: need_u64(&mut buf)?,
            payload: codec::decode_task_payload(&mut buf)?,
        },
        3 => {
            let cid = need_u64(&mut buf)?;
            let tid = need_u64(&mut buf)?;
            if buf.remaining() < 5 {
                return Err(DietError::Codec("truncated wal transition".into()));
            }
            let state = TaskState::from_u8(buf.get_u8())
                .ok_or_else(|| DietError::Codec("bad wal task state".into()))?;
            let attempts = buf.get_u32_le();
            let sed = get_str(&mut buf)?;
            let ms = need_u64(&mut buf)?;
            let note = get_str(&mut buf)?;
            WalRec::Transition {
                cid,
                tid,
                state,
                attempts,
                sed,
                ms,
                note,
            }
        }
        k => return Err(DietError::Codec(format!("unknown wal record kind {k}"))),
    };
    Ok((lsn, rec))
}

// --------------------------------------------------------------- job store

/// Tuning for the durable store.
#[derive(Debug, Clone)]
pub struct JobStoreConfig {
    /// Compact the log into a snapshot after this many appended records.
    pub snapshot_every: u64,
    /// Progress events kept in memory per campaign; older entries fall off
    /// the feed (the summary stays exact — events are a bounded stream,
    /// not the source of truth).
    pub events_cap: usize,
}

impl Default for JobStoreConfig {
    fn default() -> Self {
        JobStoreConfig {
            snapshot_every: 4096,
            events_cap: 1 << 17,
        }
    }
}

struct TaskRec {
    payload: TaskPayload,
    state: TaskState,
    attempts: u32,
    /// Requeue generation — bumped on every return to `Pending`, checked
    /// by every mutation so a dispatcher holding a stale claim (its task
    /// was requeued by the heartbeat while it was still running) cannot
    /// corrupt the newer attempt. Live-only; rebuilt as 0 on recovery.
    epoch: u32,
    sed: String,
}

struct Campaign {
    id: u64,
    name: String,
    tasks: Vec<TaskRec>,
    events: VecDeque<TaskEventRec>,
    next_seq: u64,
    resubmissions: u64,
    done: u64,
    failed: u64,
}

impl Campaign {
    fn summary(&self) -> CampaignSummary {
        let total = self.tasks.len() as u64;
        CampaignSummary {
            campaign_id: self.id,
            name: self.name.clone(),
            total,
            done: self.done,
            failed: self.failed,
            resubmissions: self.resubmissions,
            finished: total > 0 && self.done + self.failed == total,
        }
    }
}

struct StoreInner {
    campaigns: Vec<Campaign>,
    by_name: HashMap<String, u64>,
    wal: JobLog,
    next_lsn: u64,
    since_snapshot: u64,
}

/// A popped queue entry: the dispatcher's claim on one task attempt.
#[derive(Debug, Clone)]
pub struct PoppedTask {
    pub campaign_id: u64,
    pub task_id: u64,
    /// Claim token — every subsequent [`JobStore`] mutation for this task
    /// must present it, and is dropped as stale if the task was requeued
    /// meanwhile.
    pub epoch: u32,
    pub payload: TaskPayload,
}

/// What [`JobStore::fail`] did with the attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailOutcome {
    /// The claim was stale (task already requeued/finished) — dropped.
    Stale,
    /// Logged the failure and put the task back on the queue.
    Requeued,
    /// Attempt budget exhausted (or non-retryable): terminally failed.
    Terminal,
}

/// The durable campaign store: WAL + snapshot + in-memory state + the
/// pending-task queue dispatchers block on.
pub struct JobStore {
    dir: PathBuf,
    cfg: JobStoreConfig,
    inner: Mutex<StoreInner>,
    // The queue pair uses std sync types: the vendored parking_lot has no
    // Condvar, and the store lock (parking_lot) never nests inside it.
    queue: StdMutex<VecDeque<(u64, u64, u32)>>,
    queue_cv: StdCondvar,
    obs: Arc<Obs>,
    /// Tasks whose `Dispatched` state was recovered (re-queued) at open.
    recovered_inflight: u64,
    /// Tasks recovered already `Done` at open — never recomputed.
    recovered_done: u64,
}

const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_MAGIC: u32 = 0x4453_4A31; // "1JSD" LE = "DJS1" on disk

impl JobStore {
    /// Open the store under `dir` (created if missing): load the
    /// snapshot, replay the WAL tail, truncate any torn record, and
    /// re-queue recovered work.
    pub fn open(
        dir: impl Into<PathBuf>,
        cfg: JobStoreConfig,
        obs: Arc<Obs>,
    ) -> Result<Arc<JobStore>, DietError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| DietError::Transport(format!("create {}: {e}", dir.display())))?;

        let mut campaigns: Vec<Campaign> = Vec::new();
        let mut by_name = HashMap::new();
        let mut last_lsn = 0u64;
        if let Some((snap_lsn, snap_campaigns)) = load_snapshot(&dir.join(SNAPSHOT_FILE), &cfg)? {
            last_lsn = snap_lsn;
            campaigns = snap_campaigns;
            for c in &campaigns {
                by_name.insert(c.name.clone(), c.id);
            }
        }

        let (wal, records) = JobLog::open(dir.join(WAL_FILE))?;
        let mut inner = StoreInner {
            campaigns,
            by_name,
            wal,
            next_lsn: last_lsn + 1,
            since_snapshot: 0,
        };
        let mut replayed = 0u64;
        for raw in &records {
            // A record that frames correctly but decodes badly is treated
            // like a torn tail: stop replaying, keep the prefix.
            let Ok((lsn, rec)) = decode_wal_rec(raw) else {
                break;
            };
            if lsn < inner.next_lsn {
                continue; // absorbed by the snapshot before the crash
            }
            apply_rec(&mut inner, &rec, &cfg);
            inner.next_lsn = lsn + 1;
            replayed += 1;
        }
        inner.since_snapshot = replayed;

        let store = JobStore {
            dir,
            cfg,
            inner: Mutex::new(inner),
            queue: StdMutex::new(VecDeque::new()),
            queue_cv: StdCondvar::new(),
            obs,
            recovered_inflight: 0,
            recovered_done: 0,
        };
        let mut store = store;
        store.recover_queue()?;
        let store = Arc::new(store);
        store
            .obs
            .metrics
            .counter("diet_jobserver_wal_replayed_total")
            .add(replayed);
        store
            .obs
            .metrics
            .counter("diet_jobserver_recovered_inflight_total")
            .add(store.recovered_inflight);
        store
            .obs
            .metrics
            .counter("diet_jobserver_recovered_done_total")
            .add(store.recovered_done);
        Ok(store)
    }

    /// Re-queue every `Pending` task and demote every `Dispatched` one
    /// (its dispatcher died with the process) back to `Pending`.
    fn recover_queue(&mut self) -> Result<(), DietError> {
        let mut inner = self.inner.lock();
        let mut queue = self.queue.lock().unwrap();
        let mut demote = Vec::new();
        for c in &inner.campaigns {
            for (tid, t) in c.tasks.iter().enumerate() {
                match t.state {
                    TaskState::Pending => queue.push_back((c.id, tid as u64, t.epoch)),
                    TaskState::Dispatched => {
                        demote.push((c.id, tid as u64));
                        self.recovered_inflight += 1;
                    }
                    TaskState::Done => self.recovered_done += 1,
                    TaskState::Failed => {}
                }
            }
        }
        for (cid, tid) in demote {
            let attempts = {
                let c = &inner.campaigns[(cid - 1) as usize];
                c.tasks[tid as usize].attempts
            };
            let rec = WalRec::Transition {
                cid,
                tid,
                state: TaskState::Pending,
                attempts,
                sed: String::new(),
                ms: 0,
                note: "recovered in-flight".into(),
            };
            log_and_apply(&mut inner, &rec, &self.cfg)?;
            let epoch = inner.campaigns[(cid - 1) as usize].tasks[tid as usize].epoch;
            queue.push_back((cid, tid, epoch));
        }
        Ok(())
    }

    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// In-flight `Dispatched` tasks re-queued during the last open.
    pub fn recovered_inflight(&self) -> u64 {
        self.recovered_inflight
    }

    /// Tasks loaded already `Done` during the last open.
    pub fn recovered_done(&self) -> u64 {
        self.recovered_done
    }

    // ------------------------------------------------------------ clients

    /// Create (or idempotently re-attach to) the campaign called `name`.
    /// A name that already exists returns the existing campaign id and
    /// task ids without adding anything — the resubmit-after-client-crash
    /// path.
    pub fn submit(
        &self,
        name: &str,
        payloads: Vec<TaskPayload>,
    ) -> Result<(u64, Vec<u64>), DietError> {
        if name.is_empty() {
            return Err(DietError::Rejected(
                "campaign name must be non-empty".into(),
            ));
        }
        let mut inner = self.inner.lock();
        if let Some(&cid) = inner.by_name.get(name) {
            let n = inner.campaigns[(cid - 1) as usize].tasks.len() as u64;
            return Ok((cid, (0..n).collect()));
        }
        if payloads.is_empty() {
            return Err(DietError::Rejected("empty campaign".into()));
        }
        let cid = inner.campaigns.len() as u64 + 1;
        log_and_apply(
            &mut inner,
            &WalRec::CampaignCreate {
                cid,
                name: name.to_string(),
            },
            &self.cfg,
        )?;
        let mut ids = Vec::with_capacity(payloads.len());
        let mut fresh = Vec::with_capacity(payloads.len());
        for (tid, payload) in payloads.into_iter().enumerate() {
            let tid = tid as u64;
            log_and_apply(
                &mut inner,
                &WalRec::TaskAdd { cid, tid, payload },
                &self.cfg,
            )?;
            ids.push(tid);
            fresh.push((cid, tid, 0u32));
        }
        self.obs
            .metrics
            .counter("diet_jobserver_campaigns_total")
            .inc();
        self.obs
            .metrics
            .counter("diet_jobserver_tasks_total")
            .add(ids.len() as u64);
        drop(inner);
        let mut queue = self.queue.lock().unwrap();
        queue.extend(fresh);
        drop(queue);
        self.queue_cv.notify_all();
        Ok((cid, ids))
    }

    /// Summary for the campaign called `name`, if any.
    pub fn attach(&self, name: &str) -> Option<CampaignSummary> {
        let inner = self.inner.lock();
        let cid = *inner.by_name.get(name)?;
        Some(inner.campaigns[(cid - 1) as usize].summary())
    }

    pub fn summary(&self, cid: u64) -> Option<CampaignSummary> {
        let inner = self.inner.lock();
        Some(campaign(&inner, cid)?.summary())
    }

    pub fn campaigns(&self) -> Vec<CampaignSummary> {
        let inner = self.inner.lock();
        inner.campaigns.iter().map(|c| c.summary()).collect()
    }

    /// Events with `seq > cursor` (bounded per poll) plus the current
    /// summary. Unknown campaign ids are rejected.
    pub fn progress(
        &self,
        cid: u64,
        cursor: u64,
    ) -> Result<(CampaignSummary, Vec<TaskEventRec>), DietError> {
        const MAX_EVENTS_PER_POLL: usize = 4096;
        let inner = self.inner.lock();
        let c = campaign(&inner, cid)
            .ok_or_else(|| DietError::Rejected(format!("unknown campaign {cid}")))?;
        let events = c
            .events
            .iter()
            .filter(|e| e.seq > cursor)
            .take(MAX_EVENTS_PER_POLL)
            .cloned()
            .collect();
        Ok((c.summary(), events))
    }

    pub fn task_status(&self, cid: u64, tid: u64) -> Option<TaskStatusRec> {
        let inner = self.inner.lock();
        let t = campaign(&inner, cid)?.tasks.get(tid as usize)?;
        Some(TaskStatusRec {
            task_id: tid,
            state: t.state,
            attempts: t.attempts,
            sed: t.sed.clone(),
        })
    }

    // --------------------------------------------------------- dispatchers

    /// Block up to `wait` for a pending task; returns the claim (with its
    /// payload cloned out) or `None` on timeout. Entries whose epoch went
    /// stale while queued are skipped.
    pub fn next_task(&self, wait: Duration) -> Option<PoppedTask> {
        let deadline = Instant::now() + wait;
        let mut queue = self.queue.lock().unwrap();
        loop {
            while let Some((cid, tid, epoch)) = queue.pop_front() {
                // Validate under the store lock: the task must still be
                // Pending at this epoch (not re-queued again, not finished).
                let inner = self.inner.lock();
                if let Some(t) = campaign(&inner, cid).and_then(|c| c.tasks.get(tid as usize)) {
                    if t.state == TaskState::Pending && t.epoch == epoch {
                        return Some(PoppedTask {
                            campaign_id: cid,
                            task_id: tid,
                            epoch,
                            payload: t.payload.clone(),
                        });
                    }
                }
                drop(inner);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (q, res) = self.queue_cv.wait_timeout(queue, deadline - now).unwrap();
            queue = q;
            if res.timed_out() && queue.is_empty() {
                return None;
            }
        }
    }

    /// Log one dispatch attempt: the claim's task moves (or stays) in
    /// `Dispatched` aimed at `sed`, and `attempts` increments. `prior`
    /// is `None` for the first resolve of this claim (task must still be
    /// `Pending`) or `Some(attempts)` when re-resolving after a retryable
    /// call failure (task must still be `Dispatched` at that count).
    /// Returns the new attempt count, or `None` if the claim is stale.
    pub fn dispatched(
        &self,
        cid: u64,
        tid: u64,
        epoch: u32,
        prior: Option<u32>,
        sed: &str,
    ) -> Option<u32> {
        let mut inner = self.inner.lock();
        let t = campaign(&inner, cid)?.tasks.get(tid as usize)?;
        let valid = t.epoch == epoch
            && match prior {
                None => t.state == TaskState::Pending,
                Some(a) => t.state == TaskState::Dispatched && t.attempts == a,
            };
        if !valid {
            self.obs
                .metrics
                .counter("diet_jobserver_stale_outcomes_total")
                .inc();
            return None;
        }
        let attempts = t.attempts + 1;
        let rec = WalRec::Transition {
            cid,
            tid,
            state: TaskState::Dispatched,
            attempts,
            sed: sed.to_string(),
            ms: 0,
            note: String::new(),
        };
        if log_and_apply(&mut inner, &rec, &self.cfg).is_err() {
            return None;
        }
        self.obs
            .metrics
            .counter("diet_jobserver_dispatches_total")
            .inc();
        if attempts > 1 {
            self.obs
                .metrics
                .counter("diet_jobserver_resubmissions_total")
                .inc();
        }
        Some(attempts)
    }

    /// Record a successful solve for the claimed attempt. Returns `false`
    /// (and changes nothing) if the claim went stale.
    pub fn complete(
        &self,
        cid: u64,
        tid: u64,
        epoch: u32,
        attempt: u32,
        sed: &str,
        ms: u64,
    ) -> bool {
        let mut inner = self.inner.lock();
        let Some(t) = campaign(&inner, cid).and_then(|c| c.tasks.get(tid as usize)) else {
            return false;
        };
        if t.epoch != epoch || t.state != TaskState::Dispatched || t.attempts != attempt {
            self.obs
                .metrics
                .counter("diet_jobserver_stale_outcomes_total")
                .inc();
            return false;
        }
        let rec = WalRec::Transition {
            cid,
            tid,
            state: TaskState::Done,
            attempts: attempt,
            sed: sed.to_string(),
            ms,
            note: String::new(),
        };
        if log_and_apply(&mut inner, &rec, &self.cfg).is_err() {
            return false;
        }
        self.obs
            .metrics
            .counter("diet_jobserver_tasks_done_total")
            .inc();
        self.obs
            .metrics
            .histogram("diet_jobserver_task_ms")
            .observe(ms as f64);
        true
    }

    /// Record a failed attempt. Unless `force_terminal`, the task is
    /// re-queued while its attempt/requeue budget (`max_attempts`) lasts.
    pub fn fail(
        &self,
        cid: u64,
        tid: u64,
        epoch: u32,
        note: &str,
        max_attempts: u32,
        force_terminal: bool,
    ) -> FailOutcome {
        let mut inner = self.inner.lock();
        let Some(t) = campaign(&inner, cid).and_then(|c| c.tasks.get(tid as usize)) else {
            return FailOutcome::Stale;
        };
        let claim_ok =
            t.epoch == epoch && matches!(t.state, TaskState::Pending | TaskState::Dispatched);
        if !claim_ok {
            self.obs
                .metrics
                .counter("diet_jobserver_stale_outcomes_total")
                .inc();
            return FailOutcome::Stale;
        }
        let attempts = t.attempts;
        let sed = t.sed.clone();
        // The budget bounds both resolve attempts and requeue rounds, so a
        // task that can never even resolve (no server ever found) still
        // terminates.
        let terminal = force_terminal || attempts >= max_attempts || t.epoch + 1 >= max_attempts;
        let rec = WalRec::Transition {
            cid,
            tid,
            state: TaskState::Failed,
            attempts,
            sed,
            ms: 0,
            note: note.to_string(),
        };
        if log_and_apply(&mut inner, &rec, &self.cfg).is_err() {
            return FailOutcome::Stale;
        }
        if terminal {
            self.obs
                .metrics
                .counter("diet_jobserver_tasks_failed_total")
                .inc();
            return FailOutcome::Terminal;
        }
        let rec = WalRec::Transition {
            cid,
            tid,
            state: TaskState::Pending,
            attempts,
            sed: String::new(),
            ms: 0,
            note: "requeued".into(),
        };
        if log_and_apply(&mut inner, &rec, &self.cfg).is_err() {
            return FailOutcome::Stale;
        }
        let epoch = campaign(&inner, cid).unwrap().tasks[tid as usize].epoch;
        drop(inner);
        self.obs
            .metrics
            .counter("diet_jobserver_requeues_total")
            .inc();
        self.queue.lock().unwrap().push_back((cid, tid, epoch));
        self.queue_cv.notify_one();
        FailOutcome::Requeued
    }

    /// Return every task currently `Dispatched` at `label` to the queue —
    /// the heartbeat's dead-SeD recovery. Late outcomes from the dead
    /// dispatch are dropped by the epoch guard. Returns how many tasks
    /// moved.
    pub fn requeue_dead_sed(&self, label: &str) -> usize {
        let mut inner = self.inner.lock();
        let mut hits = Vec::new();
        for c in &inner.campaigns {
            for (tid, t) in c.tasks.iter().enumerate() {
                if t.state == TaskState::Dispatched && t.sed == label {
                    hits.push((c.id, tid as u64));
                }
            }
        }
        let mut moved = Vec::new();
        for (cid, tid) in &hits {
            let attempts = campaign(&inner, *cid).unwrap().tasks[*tid as usize].attempts;
            let rec = WalRec::Transition {
                cid: *cid,
                tid: *tid,
                state: TaskState::Pending,
                attempts,
                sed: String::new(),
                ms: 0,
                note: format!("sed {label} dead"),
            };
            if log_and_apply(&mut inner, &rec, &self.cfg).is_ok() {
                let epoch = campaign(&inner, *cid).unwrap().tasks[*tid as usize].epoch;
                moved.push((*cid, *tid, epoch));
            }
        }
        drop(inner);
        if !moved.is_empty() {
            self.obs
                .metrics
                .counter("diet_jobserver_requeues_total")
                .add(moved.len() as u64);
            let n = moved.len();
            let mut queue = self.queue.lock().unwrap();
            queue.extend(moved);
            drop(queue);
            self.queue_cv.notify_all();
            return n;
        }
        0
    }

    pub fn pending(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    // ----------------------------------------------------------- snapshot

    /// Compact to a snapshot if the WAL has grown past the configured
    /// threshold. Returns whether a snapshot was taken.
    pub fn maybe_snapshot(&self) -> Result<bool, DietError> {
        let due = {
            let inner = self.inner.lock();
            inner.since_snapshot >= self.cfg.snapshot_every
        };
        if due {
            self.snapshot_now()?;
        }
        Ok(due)
    }

    /// Write the full state to `snapshot.bin` (tmp + fsync + atomic
    /// rename) and truncate the WAL.
    pub fn snapshot_now(&self) -> Result<(), DietError> {
        let mut inner = self.inner.lock();
        let body = encode_snapshot(inner.next_lsn - 1, &inner.campaigns);
        let tmp = self.dir.join("snapshot.tmp");
        let path = self.snapshot_path();
        let mut f = File::create(&tmp)
            .map_err(|e| DietError::Transport(format!("create {}: {e}", tmp.display())))?;
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        header.extend_from_slice(&(body.len() as u32).to_le_bytes());
        header.extend_from_slice(&crc32(&body).to_le_bytes());
        f.write_all(&header)
            .and_then(|_| f.write_all(&body))
            .and_then(|_| f.sync_data())
            .map_err(|e| DietError::Transport(format!("write snapshot: {e}")))?;
        drop(f);
        std::fs::rename(&tmp, &path)
            .map_err(|e| DietError::Transport(format!("rename snapshot: {e}")))?;
        inner.wal.reset()?;
        inner.since_snapshot = 0;
        self.obs
            .metrics
            .counter("diet_jobserver_snapshots_total")
            .inc();
        Ok(())
    }
}

fn campaign(inner: &StoreInner, cid: u64) -> Option<&Campaign> {
    if cid == 0 {
        return None;
    }
    inner.campaigns.get((cid - 1) as usize)
}

/// Append to the WAL, then mutate in-memory state — write-ahead order, so
/// a crash after the append replays to exactly the state we are about to
/// expose.
fn log_and_apply(
    inner: &mut StoreInner,
    rec: &WalRec,
    cfg: &JobStoreConfig,
) -> Result<(), DietError> {
    let lsn = inner.next_lsn;
    let payload = encode_wal_rec(lsn, rec);
    inner.wal.append(&payload)?;
    inner.next_lsn = lsn + 1;
    inner.since_snapshot += 1;
    apply_rec(inner, rec, cfg);
    Ok(())
}

/// Apply one record to in-memory state. Shared verbatim between the live
/// path and replay so recovery reconstructs exactly the live state.
fn apply_rec(inner: &mut StoreInner, rec: &WalRec, cfg: &JobStoreConfig) {
    match rec {
        WalRec::CampaignCreate { cid, name } => {
            // Ids are dense (index + 1); replay re-creates them in order.
            debug_assert_eq!(*cid, inner.campaigns.len() as u64 + 1);
            inner.campaigns.push(Campaign {
                id: *cid,
                name: name.clone(),
                tasks: Vec::new(),
                events: VecDeque::new(),
                next_seq: 1,
                resubmissions: 0,
                done: 0,
                failed: 0,
            });
            inner.by_name.insert(name.clone(), *cid);
        }
        WalRec::TaskAdd { cid, tid, payload } => {
            if let Some(c) = inner.campaigns.get_mut((*cid - 1) as usize) {
                debug_assert_eq!(*tid, c.tasks.len() as u64);
                c.tasks.push(TaskRec {
                    payload: payload.clone(),
                    state: TaskState::Pending,
                    attempts: 0,
                    epoch: 0,
                    sed: String::new(),
                });
            }
        }
        WalRec::Transition {
            cid,
            tid,
            state,
            attempts,
            sed,
            ms,
            ..
        } => {
            let Some(c) = inner.campaigns.get_mut((*cid - 1) as usize) else {
                return;
            };
            let Some(t) = c.tasks.get_mut(*tid as usize) else {
                return;
            };
            // Symmetric counter maintenance: a Failed that is later
            // requeued (Failed → Pending in the log) un-counts itself.
            match t.state {
                TaskState::Done => c.done -= 1,
                TaskState::Failed => c.failed -= 1,
                _ => {}
            }
            if *state == TaskState::Pending && t.state != TaskState::Pending {
                t.epoch += 1;
            }
            if *state == TaskState::Dispatched && *attempts > 1 {
                c.resubmissions += 1;
            }
            t.state = *state;
            t.attempts = *attempts;
            if !sed.is_empty() || *state == TaskState::Pending {
                t.sed = sed.clone();
            }
            match *state {
                TaskState::Done => c.done += 1,
                TaskState::Failed => c.failed += 1,
                _ => {}
            }
            let ev = TaskEventRec {
                seq: c.next_seq,
                task_id: *tid,
                state: *state,
                attempt: *attempts,
                sed: sed.clone(),
                ms: *ms,
            };
            c.next_seq += 1;
            c.events.push_back(ev);
            while c.events.len() > cfg.events_cap {
                c.events.pop_front();
            }
        }
    }
}

fn encode_snapshot(last_lsn: u64, campaigns: &[Campaign]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4096);
    buf.put_u64_le(last_lsn);
    buf.put_u32_le(campaigns.len() as u32);
    for c in campaigns {
        buf.put_u64_le(c.id);
        put_str(&mut buf, &c.name);
        buf.put_u64_le(c.next_seq);
        buf.put_u64_le(c.resubmissions);
        buf.put_u64_le(c.tasks.len() as u64);
        for t in &c.tasks {
            buf.put_u8(t.state as u8);
            buf.put_u32_le(t.attempts);
            put_str(&mut buf, &t.sed);
            codec::encode_task_payload(&mut buf, &t.payload);
        }
    }
    buf.to_vec()
}

/// Load and CRC-check the snapshot; a missing, short, or corrupt file is
/// treated as "no snapshot" (the WAL alone still recovers everything
/// since the last successful compaction... which is exactly when a valid
/// snapshot would exist, so in practice corruption here means starting
/// from whatever the WAL holds).
fn load_snapshot(
    path: &Path,
    _cfg: &JobStoreConfig,
) -> Result<Option<(u64, Vec<Campaign>)>, DietError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(DietError::Transport(format!("read snapshot: {e}"))),
    };
    if bytes.len() < 12 {
        return Ok(None);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if magic != SNAPSHOT_MAGIC || bytes.len() < 12 + len || crc32(&bytes[12..12 + len]) != crc {
        return Ok(None);
    }
    let mut buf = Bytes::copy_from_slice(&bytes[12..12 + len]);
    let mut parse = || -> Result<(u64, Vec<Campaign>), DietError> {
        if buf.remaining() < 12 {
            return Err(DietError::Codec("short snapshot body".into()));
        }
        let last_lsn = buf.get_u64_le();
        let n_campaigns = buf.get_u32_le() as usize;
        let mut campaigns = Vec::with_capacity(n_campaigns.min(1024));
        for _ in 0..n_campaigns {
            if buf.remaining() < 8 {
                return Err(DietError::Codec("truncated snapshot campaign".into()));
            }
            let id = buf.get_u64_le();
            let name = get_str(&mut buf)?;
            if buf.remaining() < 24 {
                return Err(DietError::Codec("truncated snapshot campaign tail".into()));
            }
            let next_seq = buf.get_u64_le();
            let resubmissions = buf.get_u64_le();
            let n_tasks = buf.get_u64_le() as usize;
            let mut tasks = Vec::with_capacity(n_tasks.min(1 << 20));
            let (mut done, mut failed) = (0u64, 0u64);
            for _ in 0..n_tasks {
                if buf.remaining() < 5 {
                    return Err(DietError::Codec("truncated snapshot task".into()));
                }
                let state = TaskState::from_u8(buf.get_u8())
                    .ok_or_else(|| DietError::Codec("bad snapshot task state".into()))?;
                let attempts = buf.get_u32_le();
                let sed = get_str(&mut buf)?;
                let payload = codec::decode_task_payload(&mut buf)?;
                match state {
                    TaskState::Done => done += 1,
                    TaskState::Failed => failed += 1,
                    _ => {}
                }
                tasks.push(TaskRec {
                    payload,
                    state,
                    attempts,
                    epoch: 0,
                    sed,
                });
            }
            campaigns.push(Campaign {
                id,
                name,
                tasks,
                events: VecDeque::new(),
                next_seq,
                resubmissions,
                done,
                failed,
            });
        }
        Ok((last_lsn, campaigns))
    };
    match parse() {
        Ok(v) => Ok(Some(v)),
        // Framing said the body was intact but it did not parse — treat
        // like a missing snapshot rather than refusing to start.
        Err(_) => Ok(None),
    }
}

// ------------------------------------------------------------ machine pool

struct MachineState {
    misses: u32,
    dead: bool,
}

/// Heartbeat-aware view of the SeD fleet the jobserver dispatches to.
/// Labels come from the [`TcpSedPool`]'s registrations plus anything a
/// dispatch resolves; the probe loop pings each one on a dedicated
/// connection (`Pong` carries no correlation id, so it cannot ride the
/// mux) and declares a machine dead after `miss_threshold` consecutive
/// silent probes.
pub struct MachinePool {
    pool: Arc<TcpSedPool>,
    states: Mutex<HashMap<String, MachineState>>,
    obs: Arc<Obs>,
}

impl MachinePool {
    pub fn new(pool: Arc<TcpSedPool>, obs: Arc<Obs>) -> Arc<MachinePool> {
        Arc::new(MachinePool {
            pool,
            states: Mutex::new(HashMap::new()),
            obs,
        })
    }

    /// Make sure `label` is tracked (called on every resolve).
    pub fn observe(&self, label: &str) {
        self.states
            .lock()
            .entry(label.to_string())
            .or_insert(MachineState {
                misses: 0,
                dead: false,
            });
    }

    /// Labels currently considered dead — excluded from resolution.
    pub fn dead_labels(&self) -> Vec<String> {
        self.states
            .lock()
            .iter()
            .filter(|(_, s)| s.dead)
            .map(|(l, _)| l.clone())
            .collect()
    }

    pub fn is_dead(&self, label: &str) -> bool {
        self.states.lock().get(label).is_some_and(|s| s.dead)
    }

    /// Probe every tracked label plus everything registered in the pool.
    /// Returns the labels that just crossed the death threshold.
    pub fn probe_all(&self, timeout: Duration, miss_threshold: u32) -> Vec<String> {
        let mut labels: Vec<String> = self.pool.labels();
        {
            let states = self.states.lock();
            for l in states.keys() {
                if !labels.contains(l) {
                    labels.push(l.clone());
                }
            }
        }
        let mut newly_dead = Vec::new();
        for label in labels {
            let alive = self
                .pool
                .endpoint(&label)
                .map(|addr| ping_addr(addr, timeout))
                .unwrap_or(false);
            let mut states = self.states.lock();
            let s = states.entry(label.clone()).or_insert(MachineState {
                misses: 0,
                dead: false,
            });
            if alive {
                if s.dead {
                    self.obs
                        .metrics
                        .counter("diet_jobserver_machines_revived_total")
                        .inc();
                }
                s.misses = 0;
                s.dead = false;
            } else {
                s.misses += 1;
                if !s.dead && s.misses >= miss_threshold {
                    s.dead = true;
                    self.obs
                        .metrics
                        .counter("diet_jobserver_machines_dead_total")
                        .inc();
                    newly_dead.push(label);
                }
            }
        }
        newly_dead
    }
}

fn ping_addr(addr: SocketAddr, timeout: Duration) -> bool {
    let Ok(conn) = TcpTransport::connect(addr) else {
        return false;
    };
    if conn.send(&Message::Ping).is_err() {
        return false;
    }
    matches!(conn.recv_timeout(timeout), Ok(Some(Message::Pong)))
}

// -------------------------------------------------------------- job server

/// Tuning for a [`JobServer`].
#[derive(Debug, Clone)]
pub struct JobServerConfig {
    /// Data directory for the WAL and snapshots.
    pub dir: PathBuf,
    /// Dispatcher threads draining the queue.
    pub workers: usize,
    /// Resolve/solve policy for one dispatch round (per-attempt deadline,
    /// in-round retries, backoff shape) — the `call_with_retry` knobs.
    pub retry: RetryPolicy,
    /// Task-level budget: total dispatch attempts (and requeue rounds)
    /// before a task fails terminally.
    pub max_task_attempts: u32,
    /// Store compaction threshold (WAL records between snapshots).
    pub snapshot_every: u64,
    /// Probe the SeD fleet this often (`None` disables the heartbeat).
    pub heartbeat: Option<Duration>,
    /// Per-probe reply deadline.
    pub heartbeat_timeout: Duration,
    /// Consecutive missed probes before a machine is declared dead.
    pub heartbeat_misses: u32,
    /// Poll interval for DAG task payloads.
    pub dag_poll: Duration,
    /// Give up on a DAG payload after this long.
    pub dag_timeout: Duration,
}

impl JobServerConfig {
    pub fn new(dir: impl Into<PathBuf>) -> JobServerConfig {
        JobServerConfig {
            dir: dir.into(),
            workers: 4,
            retry: RetryPolicy {
                attempt_timeout: Duration::from_secs(10),
                max_retries: 3,
                backoff_base: Duration::from_millis(20),
                backoff_cap: Duration::from_millis(500),
                jitter: 0.5,
            },
            max_task_attempts: 8,
            snapshot_every: 4096,
            heartbeat: Some(Duration::from_millis(500)),
            heartbeat_timeout: Duration::from_millis(250),
            heartbeat_misses: 2,
            dag_poll: Duration::from_millis(50),
            dag_timeout: Duration::from_secs(120),
        }
    }
}

/// The campaign jobserver: durable store + dispatcher pool + heartbeat,
/// executing through a remote MA (finding) and the SeD pool (solving).
pub struct JobServer {
    store: Arc<JobStore>,
    ma: Arc<RemoteAgentClient>,
    pool: Arc<TcpSedPool>,
    machines: Arc<MachinePool>,
    obs: Arc<Obs>,
    cfg: JobServerConfig,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl JobServer {
    /// Open (recovering) the store under `cfg.dir` and start the
    /// dispatcher and heartbeat threads.
    pub fn spawn(
        cfg: JobServerConfig,
        ma: Arc<RemoteAgentClient>,
        pool: Arc<TcpSedPool>,
        obs: Arc<Obs>,
    ) -> Result<Arc<JobServer>, DietError> {
        let store = JobStore::open(
            &cfg.dir,
            JobStoreConfig {
                snapshot_every: cfg.snapshot_every,
                ..JobStoreConfig::default()
            },
            obs.clone(),
        )?;
        let machines = MachinePool::new(pool.clone(), obs.clone());
        let js = Arc::new(JobServer {
            store,
            ma,
            pool,
            machines,
            obs,
            cfg,
            stop: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
        });
        let mut threads = Vec::new();
        for _ in 0..js.cfg.workers.max(1) {
            let me = js.clone();
            threads.push(std::thread::spawn(move || me.dispatch_loop()));
        }
        if let Some(interval) = js.cfg.heartbeat {
            let me = js.clone();
            threads.push(std::thread::spawn(move || me.heartbeat_loop(interval)));
        }
        *js.threads.lock() = threads;
        Ok(js)
    }

    pub fn store(&self) -> &Arc<JobStore> {
        &self.store
    }

    pub fn machines(&self) -> &Arc<MachinePool> {
        &self.machines
    }

    /// Stop dispatchers and the heartbeat; in-flight attempts finish.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    fn dispatch_loop(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            let Some(claim) = self.store.next_task(Duration::from_millis(100)) else {
                continue;
            };
            self.run_task(claim);
            let _ = self.store.maybe_snapshot();
        }
    }

    fn heartbeat_loop(&self, interval: Duration) {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(interval);
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let newly_dead = self
                .machines
                .probe_all(self.cfg.heartbeat_timeout, self.cfg.heartbeat_misses);
            for label in newly_dead {
                let moved = self.store.requeue_dead_sed(&label);
                if moved > 0 {
                    self.obs
                        .metrics
                        .counter("diet_jobserver_redispatch_total")
                        .add(moved as u64);
                }
            }
        }
    }

    fn run_task(&self, claim: PoppedTask) {
        let trace = self.obs.tracer.new_trace();
        let span = self.obs.tracer.span(trace, 0, "task", "jobserver");
        match claim.payload.clone() {
            TaskPayload::Call(profile) => self.run_call(&claim, profile, span.ctx()),
            TaskPayload::Dag(spec) => self.run_dag(&claim, spec, span.ctx()),
        }
        span.end();
    }

    /// One dispatch round for a plain call: the shared resubmission loop
    /// ([`crate::retry`]) resolving via the MA and solving via the pool,
    /// plus the parts the store owns — dead machines pre-excluded, each
    /// attempt logged as a dispatch before the call, the outcome logged
    /// against the claim, and the cross-round budget and requeue.
    fn run_call(&self, claim: &PoppedTask, profile: Profile, ctx: obs::TraceCtx) {
        let policy = &self.cfg.retry;
        let started = Instant::now();
        // Set when the claim must be dropped without an outcome: the server
        // is stopping (the claim replays as in-flight on restart) or the
        // heartbeat requeued it under us (the claim went stale).
        let abandoned = Cell::new(false);
        let abandon = |why: &str| {
            abandoned.set(true);
            DietError::Rejected(why.to_string())
        };
        let mut prior: Option<u32> = None;
        let run = Resubmit {
            policy,
            tracer: &self.obs.tracer,
            parent: ctx,
            who: "jobserver",
            salt: ctx.trace_id ^ claim.task_id,
            excluded: self.machines.dead_labels(),
        }
        .run(
            &profile.service,
            |_, excluded, ctx| {
                if self.stop.load(Ordering::SeqCst) {
                    return Err(abandon("jobserver stopping"));
                }
                self.ma.submit(&profile.service, excluded, ctx)
            },
            |label: &String, ctx| {
                self.machines.observe(label);
                let attempt = self
                    .store
                    .dispatched(claim.campaign_id, claim.task_id, claim.epoch, prior, label)
                    .ok_or_else(|| abandon("claim went stale"))?;
                prior = Some(attempt);
                Ok(self
                    .pool
                    .call_traced(label, profile.clone(), policy.attempt_timeout, ctx)?)
            },
        );
        match run {
            _ if abandoned.get() => {}
            Ok((label, _, stats)) => {
                let ms = (stats.send + stats.queue_wait + stats.solve) * 1e3;
                self.complete(claim, prior.unwrap_or_default(), &label, ms as u64);
                self.obs
                    .metrics
                    .histogram("diet_jobserver_dispatch_ms")
                    .observe(started.elapsed().as_millis() as f64);
            }
            // The round's budget is spent; the store decides whether the
            // task's budget allows another round.
            Err(DietError::RetriesExhausted { last, .. }) => self.fail(claim, &last, false),
            Err(e) => self.fail(claim, &format!("rejected: {e}"), true),
        }
    }

    /// A DAG payload: admit the workflow into the MA's engine and poll to
    /// completion. The engine owns node-level retries; a failed outcome is
    /// terminal here.
    fn run_dag(&self, claim: &PoppedTask, spec: WorkflowSpec, ctx: obs::TraceCtx) {
        let Some(attempt) =
            self.store
                .dispatched(claim.campaign_id, claim.task_id, claim.epoch, None, "dag")
        else {
            return;
        };
        let dag_id = match self.ma.submit_dag(&spec, ctx) {
            Ok(id) => id,
            Err(e) => {
                let terminal = classify(&e) == Fault::Fatal;
                return self.fail(claim, &format!("dag admit: {e}"), terminal);
            }
        };
        let t0 = Instant::now();
        let mut since = 0u64;
        while !self.stop.load(Ordering::SeqCst) {
            if t0.elapsed() > self.cfg.dag_timeout {
                return self.fail(claim, "dag timed out", false);
            }
            match self.ma.dag_status(dag_id, since) {
                Ok((_, Some(o))) if o.ok => {
                    return self.complete(claim, attempt, "dag", o.makespan_ms);
                }
                Ok((_, Some(_))) => return self.fail(claim, "dag failed", true),
                Ok((events, None)) => since = events.last().map_or(since, |e| e.seq),
                Err(e) if classify(&e) == Fault::Fatal => {
                    return self.fail(claim, &format!("dag poll: {e}"), true);
                }
                Err(_) => {}
            }
            std::thread::sleep(self.cfg.dag_poll);
        }
    }

    /// Log a successful outcome against `claim` (stale claims change
    /// nothing).
    fn complete(&self, claim: &PoppedTask, attempt: u32, sed: &str, ms: u64) {
        let (cid, tid) = (claim.campaign_id, claim.task_id);
        self.store.complete(cid, tid, claim.epoch, attempt, sed, ms);
    }

    /// Log a failed outcome against `claim`; unless `terminal`, the task
    /// is requeued while its budget lasts.
    fn fail(&self, claim: &PoppedTask, note: &str, terminal: bool) {
        let (cid, tid, budget) = (claim.campaign_id, claim.task_id, self.cfg.max_task_attempts);
        self.store
            .fail(cid, tid, claim.epoch, note, budget, terminal);
    }
}

// ------------------------------------------------------------------ serving

/// Serve a [`JobServer`]'s client protocol on `addr` with the reactor
/// core: SubmitTasks / AttachCampaign / CampaignProgress / TaskStatus,
/// plus Ping and the correlated metrics dump.
pub fn serve_jobserver_over_tcp(
    js: Arc<JobServer>,
    addr: impl std::net::ToSocketAddrs + Clone,
    cfg: ServerConfig,
) -> Result<TcpServer, DietError> {
    let obs = js.obs.clone();
    TcpServer::spawn(addr, cfg, move |h, msg| {
        let reply = match msg {
            Message::SubmitTasks {
                request_id,
                campaign,
                tasks,
            } => Message::SubmitTasksReply {
                request_id,
                result: js.store.submit(&campaign, tasks).map_err(|e| e.to_string()),
            },
            Message::AttachCampaign {
                request_id,
                campaign,
            } => Message::AttachReply {
                request_id,
                result: js
                    .store
                    .attach(&campaign)
                    .ok_or_else(|| format!("unknown campaign {campaign:?}")),
            },
            Message::CampaignProgress {
                request_id,
                campaign_id,
                cursor,
            } => Message::ProgressReply {
                request_id,
                result: js
                    .store
                    .progress(campaign_id, cursor)
                    .map_err(|e| e.to_string()),
            },
            Message::TaskStatus {
                request_id,
                campaign_id,
                task_id,
            } => Message::TaskStatusReply {
                request_id,
                result: js
                    .store
                    .task_status(campaign_id, task_id)
                    .ok_or_else(|| format!("unknown task {campaign_id}/{task_id}")),
            },
            Message::Ping => Message::Pong,
            Message::DumpMetricsRid { request_id, .. } => Message::MetricsReplyRid {
                request_id,
                text: obs.metrics.render_prometheus(),
            },
            _ => return,
        };
        let _ = h.send(&reply);
    })
}

// ------------------------------------------------------------------- client

/// Client stub for a jobserver: one lazily-dialed multiplexed connection,
/// redialed when dead, shared by any number of threads.
pub struct JobClient {
    addr: SocketAddr,
    mux: Mutex<Option<Arc<MuxConn>>>,
    next_id: AtomicU64,
    timeout: Duration,
}

impl JobClient {
    pub fn connect(addr: SocketAddr) -> Arc<JobClient> {
        Self::with_timeout(addr, Duration::from_secs(5))
    }

    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> Arc<JobClient> {
        Arc::new(JobClient {
            addr,
            mux: Mutex::new(None),
            next_id: AtomicU64::new(0),
            timeout,
        })
    }

    fn mux(&self) -> Result<Arc<MuxConn>, DietError> {
        let mut slot = self.mux.lock();
        if let Some(mux) = slot.as_ref() {
            if !mux.is_dead() {
                return Ok(mux.clone());
            }
        }
        let fresh = Arc::new(MuxConn::connect(self.addr)?);
        *slot = Some(fresh.clone());
        Ok(fresh)
    }

    fn rid(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Liveness probe on a dedicated connection (used by the recovery
    /// experiment to time how long a restart takes to come back).
    pub fn ping(&self, timeout: Duration) -> bool {
        ping_addr(self.addr, timeout)
    }

    /// Submit (or idempotently re-attach to) a campaign; returns the
    /// campaign id and the per-campaign task ids.
    pub fn submit_tasks(
        &self,
        campaign: &str,
        tasks: Vec<TaskPayload>,
    ) -> Result<(u64, Vec<u64>), DietError> {
        let request_id = self.rid();
        let reply = self.mux()?.request(
            &Message::SubmitTasks {
                request_id,
                campaign: campaign.to_string(),
                tasks,
            },
            request_id,
            self.timeout,
        )?;
        match reply {
            Message::SubmitTasksReply { result, .. } => result.map_err(DietError::Rejected),
            Message::Busy { .. } => Err(DietError::Busy),
            other => Err(DietError::Transport(format!(
                "unexpected reply to submit_tasks: {other:?}"
            ))),
        }
    }

    pub fn attach(&self, campaign: &str) -> Result<CampaignSummary, DietError> {
        let request_id = self.rid();
        let reply = self.mux()?.request(
            &Message::AttachCampaign {
                request_id,
                campaign: campaign.to_string(),
            },
            request_id,
            self.timeout,
        )?;
        match reply {
            Message::AttachReply { result, .. } => result.map_err(DietError::Rejected),
            Message::Busy { .. } => Err(DietError::Busy),
            other => Err(DietError::Transport(format!(
                "unexpected reply to attach: {other:?}"
            ))),
        }
    }

    /// Poll the progress feed from `cursor` (0 = from the start of what
    /// the server retains). Returns the summary and events with
    /// `seq > cursor`; advance the cursor to the last event's `seq`.
    pub fn progress(
        &self,
        campaign_id: u64,
        cursor: u64,
    ) -> Result<(CampaignSummary, Vec<TaskEventRec>), DietError> {
        let request_id = self.rid();
        let reply = self.mux()?.request(
            &Message::CampaignProgress {
                request_id,
                campaign_id,
                cursor,
            },
            request_id,
            self.timeout,
        )?;
        match reply {
            Message::ProgressReply { result, .. } => result.map_err(DietError::Rejected),
            Message::Busy { .. } => Err(DietError::Busy),
            other => Err(DietError::Transport(format!(
                "unexpected reply to progress: {other:?}"
            ))),
        }
    }

    pub fn task_status(&self, campaign_id: u64, task_id: u64) -> Result<TaskStatusRec, DietError> {
        let request_id = self.rid();
        let reply = self.mux()?.request(
            &Message::TaskStatus {
                request_id,
                campaign_id,
                task_id,
            },
            request_id,
            self.timeout,
        )?;
        match reply {
            Message::TaskStatusReply { result, .. } => result.map_err(DietError::Rejected),
            Message::Busy { .. } => Err(DietError::Busy),
            other => Err(DietError::Transport(format!(
                "unexpected reply to task_status: {other:?}"
            ))),
        }
    }

    /// Poll until the campaign finishes (every task terminal), collecting
    /// the whole event feed from cursor 0. Transport errors are retried
    /// within the deadline — the server may be restarting mid-campaign.
    pub fn wait(
        &self,
        campaign_id: u64,
        poll: Duration,
        timeout: Duration,
    ) -> Result<(CampaignSummary, Vec<TaskEventRec>), DietError> {
        let deadline = Instant::now() + timeout;
        let mut cursor = 0u64;
        let mut events = Vec::new();
        loop {
            match self.progress(campaign_id, cursor) {
                Ok((summary, batch)) => {
                    if let Some(last) = batch.last() {
                        cursor = last.seq;
                    }
                    events.extend(batch);
                    if summary.finished {
                        return Ok((summary, events));
                    }
                }
                Err(DietError::Rejected(e)) => return Err(DietError::Rejected(e)),
                Err(_) => {} // server restarting; keep polling
            }
            if Instant::now() >= deadline {
                return Err(DietError::Timeout {
                    after_secs: timeout.as_secs_f64(),
                });
            }
            std::thread::sleep(poll);
        }
    }
}

// -------------------------------------------------------------------- tests

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DietValue;
    use crate::profile::ProfileDesc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "diet-jobserver-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn call_payload(x: i32) -> TaskPayload {
        let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
        d.set_arg(0, crate::profile::ArgTag::Scalar).unwrap();
        d.set_arg(1, crate::profile::ArgTag::Scalar).unwrap();
        let mut p = Profile::alloc(&d);
        p.set(
            0,
            DietValue::ScalarI32(x),
            crate::data::Persistence::Volatile,
        )
        .unwrap();
        TaskPayload::Call(p)
    }

    fn store(dir: &Path) -> Arc<JobStore> {
        JobStore::open(dir, JobStoreConfig::default(), Arc::new(Obs::new())).unwrap()
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wal_roundtrip_and_torn_tail() {
        let dir = tmpdir("wal");
        let path = dir.join("t.log");
        {
            let (mut log, recovered) = JobLog::open(&path).unwrap();
            assert!(recovered.is_empty());
            log.append(b"alpha").unwrap();
            log.append(b"beta-beta").unwrap();
        }
        // Corrupt the tail: append garbage that frames as a record start.
        let mut bytes = std::fs::read(&path).unwrap();
        let good = bytes.len();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3, 4, 42]);
        std::fs::write(&path, &bytes).unwrap();
        let (log, recovered) = JobLog::open(&path).unwrap();
        assert_eq!(recovered, vec![b"alpha".to_vec(), b"beta-beta".to_vec()]);
        assert_eq!(log.records(), 2);
        // The torn tail was truncated away.
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, good);
    }

    #[test]
    fn submit_is_idempotent_by_name() {
        let dir = tmpdir("idem");
        let s = store(&dir);
        let (cid, ids) = s
            .submit("camp", vec![call_payload(1), call_payload(2)])
            .unwrap();
        let (cid2, ids2) = s.submit("camp", vec![call_payload(1)]).unwrap();
        assert_eq!(cid, cid2);
        assert_eq!(ids, ids2);
        assert_eq!(s.summary(cid).unwrap().total, 2);
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn state_machine_and_recovery() {
        let dir = tmpdir("recover");
        let cid;
        {
            let s = store(&dir);
            let (c, ids) = s
                .submit(
                    "camp",
                    vec![call_payload(1), call_payload(2), call_payload(3)],
                )
                .unwrap();
            cid = c;
            assert_eq!(ids, vec![0, 1, 2]);
            // Task 0: dispatched and done.
            let t0 = s.next_task(Duration::from_millis(10)).unwrap();
            let a = s
                .dispatched(cid, t0.task_id, t0.epoch, None, "lyon/0")
                .unwrap();
            assert!(s.complete(cid, t0.task_id, t0.epoch, a, "lyon/0", 7));
            // Task 1: dispatched, then the process "crashes" mid-flight.
            let t1 = s.next_task(Duration::from_millis(10)).unwrap();
            s.dispatched(cid, t1.task_id, t1.epoch, None, "lyon/1")
                .unwrap();
            // Task 2 stays pending.
        }
        let s = store(&dir);
        assert_eq!(s.recovered_done(), 1);
        assert_eq!(s.recovered_inflight(), 1);
        let sum = s.summary(cid).unwrap();
        assert_eq!(sum.done, 1);
        assert_eq!(sum.failed, 0);
        // Both the in-flight and the pending task are queued again; the
        // done task is not.
        let mut queued = Vec::new();
        while let Some(t) = s.next_task(Duration::from_millis(10)) {
            queued.push(t.task_id);
        }
        queued.sort_unstable();
        assert_eq!(queued, vec![1, 2]);
        let st = s.task_status(cid, 0).unwrap();
        assert_eq!(st.state, TaskState::Done);
        assert_eq!(st.sed, "lyon/0");
    }

    #[test]
    fn stale_claims_are_dropped() {
        let dir = tmpdir("stale");
        let s = store(&dir);
        let (cid, _) = s.submit("camp", vec![call_payload(1)]).unwrap();
        let t = s.next_task(Duration::from_millis(10)).unwrap();
        let a = s.dispatched(cid, 0, t.epoch, None, "lyon/0").unwrap();
        // Heartbeat decides lyon/0 died and requeues the task.
        assert_eq!(s.requeue_dead_sed("lyon/0"), 1);
        // The original dispatcher's outcome is now stale.
        assert!(!s.complete(cid, 0, t.epoch, a, "lyon/0", 5));
        assert_eq!(
            s.fail(cid, 0, t.epoch, "late", 8, false),
            FailOutcome::Stale
        );
        // The requeued claim works fine.
        let t2 = s.next_task(Duration::from_millis(10)).unwrap();
        assert_ne!(t2.epoch, t.epoch);
        let a2 = s.dispatched(cid, 0, t2.epoch, None, "lyon/1").unwrap();
        assert_eq!(a2, 2);
        assert!(s.complete(cid, 0, t2.epoch, a2, "lyon/1", 5));
        let sum = s.summary(cid).unwrap();
        assert_eq!(sum.done, 1);
        assert_eq!(sum.resubmissions, 1);
        assert!(sum.finished);
    }

    #[test]
    fn fail_budget_terminates() {
        let dir = tmpdir("budget");
        let s = store(&dir);
        let (cid, _) = s.submit("camp", vec![call_payload(1)]).unwrap();
        let max = 3u32;
        let mut rounds = 0;
        loop {
            let t = s.next_task(Duration::from_millis(10)).unwrap();
            s.dispatched(cid, 0, t.epoch, None, "lyon/0").unwrap();
            rounds += 1;
            match s.fail(cid, 0, t.epoch, "boom", max, false) {
                FailOutcome::Requeued => continue,
                FailOutcome::Terminal => break,
                FailOutcome::Stale => panic!("claim can't be stale here"),
            }
        }
        assert_eq!(rounds, max as usize);
        let sum = s.summary(cid).unwrap();
        assert_eq!(sum.failed, 1);
        assert!(sum.finished);
        assert_eq!(s.task_status(cid, 0).unwrap().state, TaskState::Failed);
    }

    #[test]
    fn snapshot_compacts_and_recovers() {
        let dir = tmpdir("snap");
        let cid;
        {
            let s = store(&dir);
            let (c, _) = s
                .submit("camp", (0..10).map(call_payload).collect())
                .unwrap();
            cid = c;
            for _ in 0..4 {
                let t = s.next_task(Duration::from_millis(10)).unwrap();
                let a = s
                    .dispatched(cid, t.task_id, t.epoch, None, "sed/0")
                    .unwrap();
                assert!(s.complete(cid, t.task_id, t.epoch, a, "sed/0", 3));
            }
            s.snapshot_now().unwrap();
            // Post-snapshot activity lands in the fresh WAL tail.
            let t = s.next_task(Duration::from_millis(10)).unwrap();
            let a = s
                .dispatched(cid, t.task_id, t.epoch, None, "sed/1")
                .unwrap();
            assert!(s.complete(cid, t.task_id, t.epoch, a, "sed/1", 3));
            assert!(s.snapshot_path().exists());
        }
        let s = store(&dir);
        let sum = s.summary(cid).unwrap();
        assert_eq!(sum.done, 5);
        assert_eq!(sum.total, 10);
        assert_eq!(s.recovered_done(), 5);
        // Progress cursors: events regenerated from the tail only, but
        // sequence numbers continue from the snapshot's next_seq.
        let (_, events) = s.progress(cid, 0).unwrap();
        assert!(!events.is_empty());
        assert!(events.first().unwrap().seq > 1);
    }

    #[test]
    fn events_paginate_by_cursor() {
        let dir = tmpdir("cursor");
        let s = store(&dir);
        let (cid, _) = s
            .submit("camp", vec![call_payload(1), call_payload(2)])
            .unwrap();
        for _ in 0..2 {
            let t = s.next_task(Duration::from_millis(10)).unwrap();
            let a = s
                .dispatched(cid, t.task_id, t.epoch, None, "sed/0")
                .unwrap();
            assert!(s.complete(cid, t.task_id, t.epoch, a, "sed/0", 1));
        }
        let (sum, all) = s.progress(cid, 0).unwrap();
        assert!(sum.finished);
        assert_eq!(all.len(), 4); // 2 × (Dispatched, Done)
        let mid = all[1].seq;
        let (_, rest) = s.progress(cid, mid).unwrap();
        assert_eq!(rest.len(), 2);
        assert!(rest.iter().all(|e| e.seq > mid));
    }
}
