//! Dense per-VM tables for the collector's state.
//!
//! Every consumer behind a [`Collector`](crate::Collector) keys its state
//! by a VM index plus a small dense id inside that VM: a vCPU, a task, an
//! LLC socket. Guests number all three from zero, so a row of slots per
//! VM holds them with one bounds-checked index per lookup, where a hashed
//! or ordered map would pay a hash or a tree walk on nearly every event.

/// A map from `(vm, id)` to `T`, stored as one slot row per VM.
///
/// Rows and slots grow on first write and never shrink; `remove` empties
/// a slot. Iteration runs in `(vm, id)` order, the order an ordered map
/// keyed by the pair would give. State that is per VM rather than per id
/// lives at id 0.
#[derive(Debug)]
pub struct VmTable<T> {
    rows: Vec<Vec<Option<T>>>,
    len: usize,
}

impl<T> Default for VmTable<T> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            len: 0,
        }
    }
}

impl<T> VmTable<T> {
    /// The value at `(vm, id)`, if one is set.
    #[inline]
    pub fn get(&self, vm: u16, id: impl Into<u32>) -> Option<&T> {
        self.rows
            .get(usize::from(vm))?
            .get(id.into() as usize)?
            .as_ref()
    }

    /// The value at `(vm, id)` for in-place update, if one is set.
    #[inline]
    pub fn get_mut(&mut self, vm: u16, id: impl Into<u32>) -> Option<&mut T> {
        self.rows
            .get_mut(usize::from(vm))?
            .get_mut(id.into() as usize)?
            .as_mut()
    }

    /// Sets `(vm, id)` to `value`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, vm: u16, id: impl Into<u32>, value: T) -> Option<T> {
        let old = slot(&mut self.rows, vm, id.into()).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Empties `(vm, id)`, returning the value it held.
    #[inline]
    pub fn remove(&mut self, vm: u16, id: impl Into<u32>) -> Option<T> {
        let old = self
            .rows
            .get_mut(usize::from(vm))?
            .get_mut(id.into() as usize)?
            .take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value at `(vm, id)`, set to `T::default()` first if empty.
    #[inline]
    pub fn get_or_default(&mut self, vm: u16, id: impl Into<u32>) -> &mut T
    where
        T: Default,
    {
        let slot = slot(&mut self.rows, vm, id.into());
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(T::default)
    }

    /// Number of set slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set slots as `(vm, id, value)`, in `(vm, id)` order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u32, &T)> {
        self.rows.iter().enumerate().flat_map(|(vm, row)| {
            row.iter()
                .enumerate()
                .filter_map(move |(id, v)| Some((vm as u16, id as u32, v.as_ref()?)))
        })
    }

    /// Set values, in `(vm, id)` order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.rows.iter().flatten().flatten()
    }
}

/// The slot of `(vm, id)`, growing `rows` to reach it.
fn slot<T>(rows: &mut Vec<Vec<Option<T>>>, vm: u16, id: u32) -> &mut Option<T> {
    let (vm, id) = (usize::from(vm), id as usize);
    if vm >= rows.len() {
        rows.resize_with(vm + 1, Vec::new);
    }
    let row = &mut rows[vm];
    if id >= row.len() {
        row.resize_with(id + 1, || None);
    }
    &mut row[id]
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::propcheck;
    use std::collections::BTreeMap;

    /// Random insert/remove/get_mut/get_or_default sequences over a few small
    /// VMs and ids must leave the table and an ordered-map model agreeing
    /// on every lookup, on `len`, and on iteration order.
    #[test]
    fn matches_an_ordered_map_model() {
        let seed = 0x7AB1E;
        eprintln!("VmTable property seed {seed:#x}");
        propcheck::forall(seed, 64, |rng| {
            let mut table = VmTable::default();
            let mut model = BTreeMap::new();
            let vms = 1 + rng.index(4) as u16;
            let ids = 1 + rng.index(12) as u32;
            for _ in 0..200 {
                let (vm, id) = (rng.index(vms.into()) as u16, rng.index(ids as usize) as u32);
                match rng.index(4) {
                    0 => {
                        let v = rng.u64();
                        assert_eq!(table.insert(vm, id, v), model.insert((vm, id), v));
                    }
                    1 => assert_eq!(table.remove(vm, id), model.remove(&(vm, id))),
                    2 => {
                        let v = rng.u64();
                        *table.get_or_default(vm, id) ^= v;
                        *model.entry((vm, id)).or_default() ^= v;
                    }
                    _ => {
                        let (t, m) = (table.get_mut(vm, id), model.get_mut(&(vm, id)));
                        assert_eq!(t.is_some(), m.is_some());
                        if let (Some(t), Some(m)) = (t, m) {
                            *t = t.wrapping_add(1);
                            *m = m.wrapping_add(1);
                        }
                    }
                }
                assert_eq!(table.get(vm, id), model.get(&(vm, id)));
                assert_eq!(table.len(), model.len());
                assert_eq!(table.is_empty(), model.is_empty());
            }
            let rows: Vec<_> = table.iter().map(|(vm, id, &v)| ((vm, id), v)).collect();
            let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(rows, want);
            let values: Vec<_> = table.values().copied().collect();
            assert_eq!(values, model.values().copied().collect::<Vec<_>>());
        });
    }

    #[test]
    fn lookups_past_the_end_miss_without_growing() {
        let mut t: VmTable<u8> = VmTable::default();
        assert_eq!(t.get(3, 9u32), None);
        assert_eq!(t.remove(3, 9u32), None);
        assert_eq!(t.get_mut(0, 0u16), None);
        assert!(t.rows.is_empty());
        t.insert(2, 5u16, 1);
        assert_eq!(t.get(2, 5u16), Some(&1));
        assert_eq!((t.rows.len(), t.rows[2].len()), (3, 6));
    }
}
