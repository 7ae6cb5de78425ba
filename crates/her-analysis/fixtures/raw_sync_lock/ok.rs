//! Positive fixture: locking through the facade, plus std::sync items
//! that are NOT locks — none of this may trigger her::raw_sync_lock.

use her_sync::{rank, Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

pub struct State {
    counter: AtomicU64,
    table: Mutex<Vec<u32>>,
    index: RwLock<Vec<u32>>,
}

impl State {
    pub fn new() -> Arc<Self> {
        let (_tx, _rx) = mpsc::channel::<u32>();
        Arc::new(State {
            counter: AtomicU64::new(0),
            table: Mutex::new(rank::FAULT, Vec::new()),
            index: RwLock::new(rank::PARTITION, Vec::new()),
        })
    }

    pub fn bump(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed)
    }
}
