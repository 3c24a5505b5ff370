//! Hermetic stand-in for the `rayon` crate.
//!
//! Provides the parallel-iterator API subset this workspace uses. A
//! [`ParIter`] is lazy: sources (slices, `Vec`s, ranges, `par_chunks` and
//! `par_chunks_mut`) and adaptors (`map`, `enumerate`, `zip`,
//! `flat_map_iter`) only describe an index space and how to produce the
//! item at each index; nothing is materialized until a terminal operation
//! (`for_each`, `collect`, `sum`, `reduce`) runs. The terminal splits the
//! index space into at most [`current_num_threads`] contiguous blocks and
//! walks each block with an ordinary sequential iterator, so a
//! `par_iter_mut().zip(..).for_each(..)` over millions of elements
//! allocates nothing per element.
//!
//! Results match a sequential run bit for bit. `collect` keeps input
//! order. `sum` and `reduce` fold left to right on the caller: when the
//! pipeline has a `map` or `flat_map_iter`, each block buffers its mapped
//! outputs and the caller folds the buffers in block order; without one
//! there is no work to spread, so the caller folds the source directly.
//!
//! Blocks run on one persistent pool of `current_num_threads() - 1`
//! workers, started on the first parallel call (a process that never
//! calls into this crate starts no threads). The caller runs block 0
//! itself and then helps with the rest. A call made from inside a pool
//! worker, or while another caller is using the pool, runs its blocks
//! inline on the calling thread, so nesting cannot deadlock. A panic in
//! any block is re-raised on the caller once every block has finished,
//! and the pool stays usable afterwards.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Number of threads parallel operations fan out across: the machine's
/// available parallelism, queried once per process.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `oper_a` and `oper_b`, potentially in parallel, and returns both
/// results. `oper_a` always runs on the calling thread (so thread-local
/// state — e.g. tracing-span stacks — observed by `oper_a` matches a
/// sequential call); `oper_b` runs on a pool worker, or inline after
/// `oper_a` when the call is nested, the pool is busy or the machine
/// reports a single CPU.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let a = Mutex::new(Some(oper_a));
    let b = Mutex::new(Some(oper_b));
    let ra = Mutex::new(None);
    let rb = Mutex::new(None);
    fan_out(2, &|block| {
        if block == 0 {
            let f = lock(&a).take().expect("oper_a runs once");
            *lock(&ra) = Some(f());
        } else {
            let f = lock(&b).take().expect("oper_b runs once");
            *lock(&rb) = Some(f());
        }
    });
    let ra = ra.into_inner().unwrap_or_else(|e| e.into_inner());
    let rb = rb.into_inner().unwrap_or_else(|e| e.into_inner());
    (ra.expect("oper_a completed"), rb.expect("oper_b completed"))
}

/// Locks `m`, ignoring poisoning: every panic is re-raised on the caller,
/// so a poisoned slot is never read as a result.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------

thread_local! {
    /// Set on pool workers: a parallel call made from one runs inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// One fan-out: `blocks` block indices handed out through `next`.
struct Job<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    blocks: usize,
    next: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    fn run_block(&self, block: usize) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(block))) {
            lock(&self.panic).get_or_insert(payload);
        }
    }

    /// Claims and runs blocks until none are left.
    fn help(&self) {
        loop {
            let block = self.next.fetch_add(1, Ordering::Relaxed);
            if block >= self.blocks {
                return;
            }
            self.run_block(block);
        }
    }
}

/// A lifetime-erased pointer to the caller's [`Job`]. The caller retracts
/// it and waits for every worker that picked it up before its stack frame
/// (and so the job) goes away.
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

// SAFETY: the pointee is `Sync` (a `Sync` closure, atomics and a mutex),
// and the caller keeps it alive while any worker holds the pointer.
unsafe impl Send for JobPtr {}

struct Slot {
    job: Option<JobPtr>,
    /// Bumped per posted job, so a worker never re-enters one it finished.
    generation: u64,
    /// Workers currently inside the posted job.
    active: usize,
}

struct Pool {
    /// Held by the one caller currently fanning out.
    busy: AtomicBool,
    slot: Mutex<Slot>,
    work: Condvar,
    idle: Condvar,
}

impl Pool {
    /// The process-wide pool, started on first use. `None` on one CPU.
    fn get() -> Option<&'static Pool> {
        static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
        *POOL.get_or_init(|| {
            let workers = current_num_threads().saturating_sub(1);
            if workers == 0 {
                return None;
            }
            let pool: &'static Pool = Box::leak(Box::new(Pool {
                busy: AtomicBool::new(false),
                slot: Mutex::new(Slot {
                    job: None,
                    generation: 0,
                    active: 0,
                }),
                work: Condvar::new(),
                idle: Condvar::new(),
            }));
            for i in 0..workers {
                std::thread::Builder::new()
                    .name(format!("rayon-compat-{i}"))
                    .spawn(move || pool.worker())
                    .expect("spawn rayon compat worker");
            }
            Some(pool)
        })
    }

    fn worker(&self) {
        IN_WORKER.with(|w| w.set(true));
        let mut seen = 0u64;
        loop {
            let job = {
                let mut slot = lock(&self.slot);
                loop {
                    if slot.generation != seen {
                        seen = slot.generation;
                        if let Some(job) = slot.job {
                            slot.active += 1;
                            break job;
                        }
                    }
                    slot = self.work.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            };
            // SAFETY: `active` was raised under the lock while the job was
            // posted; the caller does not return until it drops to zero.
            unsafe { (*job.0).help() };
            let mut slot = lock(&self.slot);
            slot.active -= 1;
            if slot.active == 0 {
                self.idle.notify_all();
            }
        }
    }

    /// Runs `job` with the caller on block 0, then waits for the workers.
    fn run(&self, job: &Job<'_>) {
        // Only the lifetime is erased; see `JobPtr`.
        let ptr = JobPtr((job as *const Job<'_>).cast::<Job<'static>>());
        {
            let mut slot = lock(&self.slot);
            slot.job = Some(ptr);
            slot.generation += 1;
        }
        self.work.notify_all();
        job.run_block(0);
        job.help();
        let mut slot = lock(&self.slot);
        slot.job = None;
        while slot.active > 0 {
            slot = self.idle.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Runs `run(0)`, …, `run(blocks - 1)`: block 0 on the caller, the rest on
/// the pool, or all inline in order when nested, busy or single-CPU.
/// Returns once every block has finished; re-raises the first panic.
fn fan_out(blocks: usize, run: &(dyn Fn(usize) + Sync)) {
    let pool = if blocks > 1 && !IN_WORKER.with(Cell::get) {
        Pool::get()
    } else {
        None
    };
    let Some(pool) = pool.filter(|p| !p.busy.swap(true, Ordering::Acquire)) else {
        (0..blocks).for_each(run);
        return;
    };
    let job = Job {
        run,
        blocks,
        next: AtomicUsize::new(1),
        panic: Mutex::new(None),
    };
    pool.run(&job);
    pool.busy.store(false, Ordering::Release);
    if let Some(payload) = job.panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic::resume_unwind(payload);
    }
}

/// Splits `0..len` into at most [`current_num_threads`] contiguous blocks,
/// runs `block` on each in parallel and returns the results in block
/// order.
fn run_blocks<R: Send>(len: usize, block: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    let blocks = current_num_threads().min(len).max(1);
    if blocks == 1 {
        return vec![block(0..len)];
    }
    let slots: Vec<Mutex<Option<R>>> = (0..blocks).map(|_| Mutex::new(None)).collect();
    fan_out(blocks, &|b| {
        let range = b * len / blocks..(b + 1) * len / blocks;
        *lock(&slots[b]) = Some(block(range));
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every block ran")
        })
        .collect()
}

// ---------------------------------------------------------------------
// Producers: the lazy description behind a `ParIter`.
// ---------------------------------------------------------------------

/// An index space whose blocks can be walked independently, possibly on
/// different threads.
pub trait Producer: Sync {
    /// The element type.
    type Item: Send;
    /// The sequential iterator over one block.
    type Iter<'a>: Iterator<Item = Self::Item>
    where
        Self: 'a;
    /// Whether producing an item runs a caller closure (`map`,
    /// `flat_map_iter`): only then do `collect`, `sum` and `reduce` go
    /// parallel and buffer the outputs.
    const MAPS: bool;
    /// Number of indices.
    fn len(&self) -> usize;
    /// Whether the index space is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Iterates the items at indices `range`.
    ///
    /// # Safety
    ///
    /// Within one terminal operation the ranges passed must be disjoint
    /// and within `0..len()`: mutable and owning sources hand out each
    /// element at most once.
    unsafe fn iter(&self, range: Range<usize>) -> Self::Iter<'_>;
}

/// A [`Producer`] with exactly one item per index, so it can be
/// enumerated or zipped.
pub trait IndexedProducer: Producer {}

/// A lazy parallel iterator; see the crate docs.
pub struct ParIter<P> {
    producer: P,
}

impl<P: Producer> ParIter<P> {
    /// Applies `f` to every item, in parallel at the terminal operation.
    pub fn map<U: Send, F>(self, f: F) -> ParIter<Map<P, F>>
    where
        F: Fn(P::Item) -> U + Sync,
    {
        ParIter {
            producer: Map {
                base: self.producer,
                f,
            },
        }
    }

    /// Applies `f` to every item and flattens the per-item iterators in
    /// input order.
    pub fn flat_map_iter<I, F>(self, f: F) -> ParIter<FlatMapIter<P, F>>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(P::Item) -> I + Sync,
    {
        ParIter {
            producer: FlatMapIter {
                base: self.producer,
                f,
            },
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Sync,
    {
        let p = &self.producer;
        // SAFETY: `run_blocks` hands out disjoint ranges covering `0..len`.
        run_blocks(p.len(), |r| unsafe { p.iter(r) }.for_each(&f));
    }

    /// Folds the items left to right with `op`, starting from `identity()`,
    /// on the caller — the same result as a sequential fold.
    pub fn reduce<Id, Op>(self, identity: Id, op: Op) -> P::Item
    where
        Id: Fn() -> P::Item + Sync,
        Op: Fn(P::Item, P::Item) -> P::Item + Sync,
    {
        if !P::MAPS {
            return self.sequential().fold(identity(), op);
        }
        self.buffers().into_iter().flatten().fold(identity(), op)
    }

    /// Sums the items left to right on the caller — the same result as a
    /// sequential `Iterator::sum`.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<P::Item>,
    {
        if !P::MAPS {
            return self.sequential().sum();
        }
        self.buffers().into_iter().flatten().sum()
    }

    /// Collects the items, in input order, into any `FromIterator`
    /// container.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<P::Item>,
    {
        if !P::MAPS {
            return self.sequential().collect();
        }
        self.buffers().into_iter().flatten().collect()
    }

    /// Walks every item in order on the caller: for sources with no work
    /// to spread.
    fn sequential(&self) -> P::Iter<'_> {
        // SAFETY: one range, the whole index space.
        unsafe { self.producer.iter(0..self.producer.len()) }
    }

    /// Computes the items in parallel, one buffer per block, in order.
    fn buffers(&self) -> Vec<Vec<P::Item>> {
        let p = &self.producer;
        // SAFETY: `run_blocks` hands out disjoint ranges covering `0..len`.
        run_blocks(p.len(), |r| unsafe { p.iter(r) }.collect())
    }
}

impl<P: IndexedProducer> ParIter<P> {
    /// Pairs each item with its index.
    pub fn enumerate(self) -> ParIter<Enumerate<P>> {
        ParIter {
            producer: Enumerate {
                base: self.producer,
            },
        }
    }

    /// Pairs items element-wise with another parallel iterator,
    /// truncating to the shorter side.
    pub fn zip<Z>(self, other: Z) -> ParIter<Zip<P, Z::Producer>>
    where
        Z: IntoParallelIterator,
        Z::Producer: IndexedProducer,
    {
        ParIter {
            producer: Zip {
                a: self.producer,
                b: other.into_par_iter().producer,
            },
        }
    }
}

/// Conversion into a [`ParIter`].
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The lazy source the iterator walks.
    type Producer: Producer<Item = Self::Item>;
    /// Converts `self` into a lazy parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Producer>;
}

impl<P: Producer> IntoParallelIterator for ParIter<P> {
    type Item = P::Item;
    type Producer = P;
    fn into_par_iter(self) -> ParIter<P> {
        self
    }
}

// ---------------------------------------------------------------------
// Adaptors.
// ---------------------------------------------------------------------

/// Producer behind [`ParIter::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, U> Producer for Map<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> U + Sync,
    U: Send,
{
    type Item = U;
    type Iter<'a>
        = std::iter::Map<P::Iter<'a>, &'a F>
    where
        Self: 'a;
    const MAPS: bool = true;
    fn len(&self) -> usize {
        self.base.len()
    }
    unsafe fn iter(&self, range: Range<usize>) -> Self::Iter<'_> {
        self.base.iter(range).map(&self.f)
    }
}

impl<P, F, U> IndexedProducer for Map<P, F>
where
    P: IndexedProducer,
    F: Fn(P::Item) -> U + Sync,
    U: Send,
{
}

/// Producer behind [`ParIter::flat_map_iter`]. Its indices are the base's;
/// each yields any number of items, so it is not indexed.
pub struct FlatMapIter<P, F> {
    base: P,
    f: F,
}

impl<P, F, I> Producer for FlatMapIter<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> I + Sync,
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    type Iter<'a>
        = std::iter::FlatMap<P::Iter<'a>, I, &'a F>
    where
        Self: 'a;
    const MAPS: bool = true;
    fn len(&self) -> usize {
        self.base.len()
    }
    unsafe fn iter(&self, range: Range<usize>) -> Self::Iter<'_> {
        self.base.iter(range).flat_map(&self.f)
    }
}

/// Producer behind [`ParIter::enumerate`].
pub struct Enumerate<P> {
    base: P,
}

impl<P: IndexedProducer> Producer for Enumerate<P> {
    type Item = (usize, P::Item);
    type Iter<'a>
        = std::iter::Zip<Range<usize>, P::Iter<'a>>
    where
        Self: 'a;
    const MAPS: bool = P::MAPS;
    fn len(&self) -> usize {
        self.base.len()
    }
    unsafe fn iter(&self, range: Range<usize>) -> Self::Iter<'_> {
        range.clone().zip(self.base.iter(range))
    }
}

impl<P: IndexedProducer> IndexedProducer for Enumerate<P> {}

/// Producer behind [`ParIter::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedProducer, B: IndexedProducer> Producer for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Iter<'a>
        = std::iter::Zip<A::Iter<'a>, B::Iter<'a>>
    where
        Self: 'a;
    const MAPS: bool = A::MAPS || B::MAPS;
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    unsafe fn iter(&self, range: Range<usize>) -> Self::Iter<'_> {
        self.a.iter(range.clone()).zip(self.b.iter(range))
    }
}

impl<A: IndexedProducer, B: IndexedProducer> IndexedProducer for Zip<A, B> {}

// ---------------------------------------------------------------------
// Sources.
// ---------------------------------------------------------------------

/// Producer over `&[T]`.
pub struct SliceProducer<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> Producer for SliceProducer<'data, T> {
    type Item = &'data T;
    type Iter<'a>
        = std::slice::Iter<'data, T>
    where
        Self: 'a;
    const MAPS: bool = false;
    fn len(&self) -> usize {
        self.slice.len()
    }
    unsafe fn iter(&self, range: Range<usize>) -> Self::Iter<'_> {
        self.slice[range].iter()
    }
}

impl<T: Sync> IndexedProducer for SliceProducer<'_, T> {}

/// Producer over `&mut [T]`.
pub struct SliceMutProducer<'data, T> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'data mut [T]>,
}

// SAFETY: blocks are disjoint, so each `&mut T` is handed to one thread,
// which needs `T: Send`.
unsafe impl<T: Send> Sync for SliceMutProducer<'_, T> {}

impl<'data, T: Send> Producer for SliceMutProducer<'data, T> {
    type Item = &'data mut T;
    type Iter<'a>
        = std::slice::IterMut<'data, T>
    where
        Self: 'a;
    const MAPS: bool = false;
    fn len(&self) -> usize {
        self.len
    }
    unsafe fn iter(&self, range: Range<usize>) -> Self::Iter<'_> {
        assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()).iter_mut()
    }
}

impl<T: Send> IndexedProducer for SliceMutProducer<'_, T> {}

/// Producer over `slice.chunks(size)`.
pub struct ChunksProducer<'data, T> {
    slice: &'data [T],
    size: usize,
}

impl<'data, T: Sync> Producer for ChunksProducer<'data, T> {
    type Item = &'data [T];
    type Iter<'a>
        = std::slice::Chunks<'data, T>
    where
        Self: 'a;
    const MAPS: bool = false;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    unsafe fn iter(&self, range: Range<usize>) -> Self::Iter<'_> {
        let end = (range.end * self.size).min(self.slice.len());
        self.slice[range.start * self.size..end].chunks(self.size)
    }
}

impl<T: Sync> IndexedProducer for ChunksProducer<'_, T> {}

/// Producer over `slice.chunks_mut(size)`.
pub struct ChunksMutProducer<'data, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _borrow: PhantomData<&'data mut [T]>,
}

// SAFETY: as for `SliceMutProducer`; disjoint chunk ranges cover disjoint
// elements.
unsafe impl<T: Send> Sync for ChunksMutProducer<'_, T> {}

impl<'data, T: Send> Producer for ChunksMutProducer<'data, T> {
    type Item = &'data mut [T];
    type Iter<'a>
        = std::slice::ChunksMut<'data, T>
    where
        Self: 'a;
    const MAPS: bool = false;
    fn len(&self) -> usize {
        self.len.div_ceil(self.size)
    }
    unsafe fn iter(&self, range: Range<usize>) -> Self::Iter<'_> {
        let start = range.start * self.size;
        let end = (range.end * self.size).min(self.len);
        assert!(start <= end);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start).chunks_mut(self.size)
    }
}

impl<T: Send> IndexedProducer for ChunksMutProducer<'_, T> {}

/// Producer that moves the items out of a `Vec<T>`.
pub struct VecProducer<T> {
    ptr: *mut T,
    len: usize,
    cap: usize,
    /// End of the highest range handed out. Terminal operations hand out
    /// a prefix `0..taken` (every block runs, or blocks run in order until
    /// a panic), so the items from `taken` on were never moved out.
    taken: AtomicUsize,
}

// SAFETY: each item is moved out at most once, by the thread walking its
// block, which needs `T: Send`.
unsafe impl<T: Send> Sync for VecProducer<T> {}

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type Iter<'a>
        = VecBlock<'a, T>
    where
        Self: 'a;
    const MAPS: bool = false;
    fn len(&self) -> usize {
        self.len
    }
    unsafe fn iter(&self, range: Range<usize>) -> Self::Iter<'_> {
        assert!(range.start <= range.end && range.end <= self.len);
        self.taken.fetch_max(range.end, Ordering::Relaxed);
        VecBlock {
            next: self.ptr.add(range.start),
            end: self.ptr.add(range.end),
            _owner: PhantomData,
        }
    }
}

impl<T: Send> IndexedProducer for VecProducer<T> {}

impl<T> Drop for VecProducer<T> {
    fn drop(&mut self) {
        let taken = *self.taken.get_mut();
        // SAFETY: items `taken..len` were never moved out; the buffer came
        // from a `Vec` with this pointer and capacity.
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                self.ptr.add(taken),
                self.len - taken,
            ));
            drop(Vec::from_raw_parts(self.ptr, 0, self.cap));
        }
    }
}

/// Moves the items of one block out of a [`VecProducer`]; drops whatever
/// it did not yield.
pub struct VecBlock<'a, T> {
    next: *mut T,
    end: *mut T,
    _owner: PhantomData<&'a VecProducer<T>>,
}

impl<T> Iterator for VecBlock<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.next == self.end {
            return None;
        }
        // SAFETY: `next` is inside this block, which owns its items.
        unsafe {
            let item = self.next.read();
            self.next = self.next.add(1);
            Some(item)
        }
    }
}

impl<T> Drop for VecBlock<'_, T> {
    fn drop(&mut self) {
        // SAFETY: the items `next..end` belong to this block and were not
        // yielded.
        unsafe {
            let rest = self.end.offset_from(self.next) as usize;
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(self.next, rest));
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Producer = VecProducer<T>;
    fn into_par_iter(self) -> ParIter<VecProducer<T>> {
        let mut v = ManuallyDrop::new(self);
        ParIter {
            producer: VecProducer {
                ptr: v.as_mut_ptr(),
                len: v.len(),
                cap: v.capacity(),
                taken: AtomicUsize::new(0),
            },
        }
    }
}

/// Producer over an integer range.
pub struct RangeProducer<T> {
    start: T,
    len: usize,
}

/// The integers of one block of a [`RangeProducer`]. Counts items rather
/// than comparing against an end value, so `..=MAX` ranges work.
pub struct RangeBlock<T> {
    next: T,
    left: usize,
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl Iterator for RangeBlock<$t> {
            type Item = $t;
            fn next(&mut self) -> Option<$t> {
                if self.left == 0 {
                    return None;
                }
                let item = self.next;
                self.next = self.next.wrapping_add(1);
                self.left -= 1;
                Some(item)
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                (self.left, Some(self.left))
            }
        }

        impl Producer for RangeProducer<$t> {
            type Item = $t;
            type Iter<'a> = RangeBlock<$t>;
            const MAPS: bool = false;
            fn len(&self) -> usize {
                self.len
            }
            unsafe fn iter(&self, range: Range<usize>) -> RangeBlock<$t> {
                RangeBlock {
                    next: self.start.wrapping_add(range.start as $t),
                    left: range.len(),
                }
            }
        }

        impl IndexedProducer for RangeProducer<$t> {}

        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Producer = RangeProducer<$t>;
            fn into_par_iter(self) -> ParIter<RangeProducer<$t>> {
                let len = if self.start < self.end {
                    self.end.abs_diff(self.start) as usize
                } else {
                    0
                };
                ParIter { producer: RangeProducer { start: self.start, len } }
            }
        }

        impl IntoParallelIterator for RangeInclusive<$t> {
            type Item = $t;
            type Producer = RangeProducer<$t>;
            fn into_par_iter(self) -> ParIter<RangeProducer<$t>> {
                let (start, end) = self.into_inner();
                let len = if start <= end {
                    end.abs_diff(start) as usize + 1
                } else {
                    0
                };
                ParIter { producer: RangeProducer { start, len } }
            }
        }
    )*};
}
impl_range_par_iter!(usize, u64, u32, i64, i32);

/// Borrowing parallel iteration over slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> ParIter<SliceProducer<'_, T>>;
    /// Parallel iterator over non-overlapping chunks.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksProducer<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<SliceProducer<'_, T>> {
        ParIter {
            producer: SliceProducer { slice: self },
        }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksProducer<'_, T>> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ParIter {
            producer: ChunksProducer {
                slice: self,
                size: chunk_size,
            },
        }
    }
}

/// Mutably-borrowing parallel iteration over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over exclusive references.
    fn par_iter_mut(&mut self) -> ParIter<SliceMutProducer<'_, T>>;
    /// Parallel iterator over non-overlapping exclusive chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutProducer<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<SliceMutProducer<'_, T>> {
        ParIter {
            producer: SliceMutProducer {
                ptr: self.as_mut_ptr(),
                len: self.len(),
                _borrow: PhantomData,
            },
        }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutProducer<'_, T>> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ParIter {
            producer: ChunksMutProducer {
                ptr: self.as_mut_ptr(),
                len: self.len(),
                size: chunk_size,
                _borrow: PhantomData,
            },
        }
    }
}

/// The traits rayon callers conventionally glob-import.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sum_matches_sequential() {
        let total: u64 = (1..=100u64).into_par_iter().map(|x| x * x).sum();
        assert_eq!(total, (1..=100u64).map(|x| x * x).sum::<u64>());
    }

    #[test]
    fn par_iter_mut_updates_in_place() {
        let mut data = vec![1.0f64; 64];
        data.par_iter_mut().for_each(|x| *x += 1.0);
        assert!(data.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn par_chunks_mut_enumerate_zip() {
        let mut data = [0usize; 12];
        let tail = [100usize, 200, 300];
        data.par_chunks_mut(4)
            .zip(tail.par_iter())
            .enumerate()
            .for_each(|(i, (chunk, &t))| {
                for slot in chunk.iter_mut() {
                    *slot = i + t;
                }
            });
        assert_eq!(data[0], 100);
        assert_eq!(data[4], 201);
        assert_eq!(data[8], 302);
    }

    #[test]
    fn flat_map_iter_flattens_in_order() {
        let out: Vec<usize> = vec![1usize, 2, 3]
            .into_par_iter()
            .flat_map_iter(|x| (0..x).map(move |y| x * 10 + y))
            .collect();
        assert_eq!(out, vec![10, 20, 21, 30, 31, 32]);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = crate::join(|| 6 * 7, || "done".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "done");
    }

    #[test]
    fn join_runs_oper_a_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let (a_thread, _) = crate::join(|| std::thread::current().id(), || ());
        assert_eq!(a_thread, caller);
    }

    #[test]
    fn empty_and_single_inputs() {
        let out: Vec<usize> = Vec::<usize>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<usize> = vec![7usize].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }

    /// Values whose sum depends on the order of addition.
    fn awkward(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033_988_749).fract();
                (x - 0.5) * 10f64.powi((i % 17) as i32 - 8)
            })
            .collect()
    }

    #[test]
    fn f64_sum_and_reduce_equal_the_sequential_left_fold() {
        for n in 0..=257 {
            let v = awkward(n);
            let seq = v.iter().map(|x| x * 1.5).fold(0.0f64, |a, b| a + b);
            let seq_sum: f64 = v.iter().map(|x| x * 1.5).sum();
            let par_sum: f64 = v.par_iter().map(|x| x * 1.5).sum();
            let par_reduce = v.par_iter().map(|x| x * 1.5).reduce(|| 0.0, |a, b| a + b);
            let unmapped: f64 = v.par_iter().sum();
            assert_eq!(par_sum.to_bits(), seq_sum.to_bits(), "sum, n = {n}");
            assert_eq!(par_reduce.to_bits(), seq.to_bits(), "reduce, n = {n}");
            assert_eq!(
                unmapped.to_bits(),
                v.iter().sum::<f64>().to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn order_survives_chunks_mut_zip_enumerate() {
        let n = 1001;
        let mut out = vec![0usize; n * 3];
        let tags: Vec<usize> = (0..n).map(|i| i * 7 + 1).collect();
        out.par_chunks_mut(3)
            .zip(tags.par_iter())
            .enumerate()
            .for_each(|(i, (chunk, &tag))| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = i * 1_000_000 + tag * 10 + j;
                }
            });
        for i in 0..n {
            for j in 0..3 {
                assert_eq!(out[i * 3 + j], i * 1_000_000 + (i * 7 + 1) * 10 + j);
            }
        }
    }

    #[test]
    fn flat_map_iter_collect_keeps_order_at_scale() {
        let out: Vec<u64> = (0..2000u64)
            .into_par_iter()
            .flat_map_iter(|x| (0..x % 5).map(move |y| x * 10 + y))
            .collect();
        let expect: Vec<u64> = (0..2000u64)
            .flat_map(|x| (0..x % 5).map(move |y| x * 10 + y))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn nested_par_iter_inside_for_each_completes() {
        let rows: Vec<Vec<u64>> = (0..64u64)
            .map(|r| (0..100).map(|c| r * c).collect())
            .collect();
        let mut totals = vec![0u64; rows.len()];
        totals
            .par_iter_mut()
            .zip(rows.par_iter())
            .for_each(|(t, row)| *t = row.par_iter().map(|&x| x + 1).sum());
        for (r, &t) in totals.iter().enumerate() {
            assert_eq!(t, (0..100u64).map(|c| r as u64 * c + 1).sum::<u64>());
        }
    }

    #[test]
    fn panic_propagates_and_the_next_call_succeeds() {
        let caught = std::panic::catch_unwind(|| {
            (0..1000usize).into_par_iter().for_each(|i| {
                if i == 999 {
                    panic!("boom at {i}");
                }
            });
        });
        let payload = caught.expect_err("the panic reaches the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 999");
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
        let caught = std::panic::catch_unwind(|| crate::join(|| 1, || panic!("in oper_b")));
        assert!(caught.is_err());
        assert_eq!(crate::join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn owned_vec_items_are_dropped_exactly_once() {
        use std::sync::Arc;
        let tracker = Arc::new(());
        let items: Vec<Arc<()>> = (0..100).map(|_| Arc::clone(&tracker)).collect();
        let short = [0u8; 40];
        // Zip truncates to 40: the 60 untaken items must still be dropped.
        items
            .into_par_iter()
            .zip(short.par_iter())
            .for_each(|(a, _)| drop(a));
        assert_eq!(Arc::strong_count(&tracker), 1);
        let items: Vec<Arc<()>> = (0..100).map(|_| Arc::clone(&tracker)).collect();
        let kept: Vec<Arc<()>> = items.into_par_iter().map(|a| a).collect();
        assert_eq!(Arc::strong_count(&tracker), 101);
        drop(kept);
        assert_eq!(Arc::strong_count(&tracker), 1);
    }

    #[test]
    fn ranges_cover_their_bounds() {
        let v: Vec<i32> = (-3..=3i32).into_par_iter().collect();
        assert_eq!(v, vec![-3, -2, -1, 0, 1, 2, 3]);
        let v: Vec<u64> = (5..5u64).into_par_iter().collect();
        assert!(v.is_empty());
        let total: u64 = (u64::MAX - 3..=u64::MAX)
            .into_par_iter()
            .map(|x| x - (u64::MAX - 3))
            .sum();
        assert_eq!(total, 6);
    }
}
