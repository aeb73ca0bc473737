//! The run codec: the one on-disk serialization of cells. A run is the
//! payload of one WAL record (one group commit) and of one SSTable block.
//! DESIGN.md §2 has the layout and what each part of it saves.

use bytes::Bytes;
use muppet_core::codec::{get_len_prefixed, get_varint, put_len_prefixed, put_varint};
use muppet_core::Codec;

use crate::types::{Cell, CellKey, StoreError, StoreResult};

/// Flag bits in the low end of a cell's head; the column index sits above.
const TOMBSTONE: u64 = 0b001;
const MBF: u64 = 0b010;
const TTL: u64 = 0b100;
const FLAG_BITS: u32 = 3;

/// Appends cells to one run. A fresh encoder starts a fresh run.
#[derive(Default)]
pub(crate) struct RunEncoder {
    columns: Vec<Bytes>,
    row: Bytes,
    write_ts: u64,
}

impl RunEncoder {
    /// Append `(key, cell)` to the run being written into `out`.
    pub(crate) fn push(&mut self, out: &mut Vec<u8>, key: &CellKey, cell: &Cell) {
        let shared = self.row.iter().zip(key.row.iter()).take_while(|(a, b)| a == b).count();
        put_varint(out, shared as u64);
        put_len_prefixed(out, &key.row[shared..]);
        self.row = key.row.clone();

        let known = self.columns.iter().position(|c| *c == key.column);
        let column = known.unwrap_or(self.columns.len());
        let mut head = (column as u64) << FLAG_BITS;
        if cell.tombstone {
            debug_assert!(cell.value.is_empty(), "a tombstone's value is not stored");
            head |= TOMBSTONE;
        }
        if cell.codec == Codec::Mbf {
            head |= MBF;
        }
        if cell.ttl_secs.is_some() {
            head |= TTL;
        }
        put_varint(out, head);
        if known.is_none() {
            put_len_prefixed(out, &key.column);
            self.columns.push(key.column.clone());
        }

        let delta = cell.write_ts.wrapping_sub(self.write_ts) as i64;
        put_varint(out, ((delta << 1) ^ (delta >> 63)) as u64);
        self.write_ts = cell.write_ts;
        if let Some(ttl) = cell.ttl_secs {
            put_varint(out, ttl);
        }
        if !cell.tombstone {
            put_len_prefixed(out, &cell.value);
        }
    }
}

/// One decoded cell, borrowed from its run; its row is the reader's.
pub(crate) struct CellRef<'a> {
    pub(crate) column: &'a [u8],
    head: u64,
    write_ts: u64,
    ttl_secs: Option<u64>,
    value: &'a [u8],
}

impl CellRef<'_> {
    /// The owned cell.
    pub(crate) fn to_cell(&self) -> Cell {
        Cell {
            value: Bytes::copy_from_slice(self.value),
            write_ts: self.write_ts,
            ttl_secs: self.ttl_secs,
            tombstone: self.head & TOMBSTONE != 0,
            codec: if self.head & MBF != 0 { Codec::Mbf } else { Codec::Json },
        }
    }
}

/// Walks the cells of one run in order, allocating nothing per cell.
pub(crate) struct RunReader<'a> {
    rest: &'a [u8],
    columns: Vec<&'a [u8]>,
    row: Vec<u8>,
    write_ts: u64,
}

fn corrupt(what: &str) -> StoreError {
    StoreError::Corrupt(format!("run: bad {what}"))
}

impl<'a> RunReader<'a> {
    pub(crate) fn new(run: &'a [u8]) -> Self {
        RunReader { rest: run, columns: Vec::new(), row: Vec::new(), write_ts: 0 }
    }

    /// The row of the cell [`RunReader::next_cell`] returned last.
    pub(crate) fn row(&self) -> &[u8] {
        &self.row
    }

    /// The next cell; `None` at the end of the run, `Err` where it is
    /// malformed.
    pub(crate) fn next_cell(&mut self) -> StoreResult<Option<CellRef<'a>>> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        let shared = self.varint("shared prefix")?;
        let suffix = self.bytes("row")?;
        if shared > self.row.len() as u64 {
            return Err(corrupt("shared prefix"));
        }
        self.row.truncate(shared as usize);
        self.row.extend_from_slice(suffix);

        let head = self.varint("head")?;
        let index = usize::try_from(head >> FLAG_BITS).map_err(|_| corrupt("column"))?;
        let column = match self.columns.get(index) {
            Some(column) => column,
            None if index == self.columns.len() => {
                let name = self.bytes("column")?;
                self.columns.push(name);
                name
            }
            None => return Err(corrupt("column")),
        };

        let zigzag = self.varint("write_ts")?;
        self.write_ts = self.write_ts.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg());
        let ttl_secs = if head & TTL != 0 { Some(self.varint("ttl")?) } else { None };
        let value = if head & TOMBSTONE != 0 { &[][..] } else { self.bytes("value")? };
        Ok(Some(CellRef { column, head, write_ts: self.write_ts, ttl_secs, value }))
    }

    fn varint(&mut self, what: &str) -> StoreResult<u64> {
        let (value, used) = get_varint(self.rest).ok_or_else(|| corrupt(what))?;
        self.rest = &self.rest[used..];
        Ok(value)
    }

    fn bytes(&mut self, what: &str) -> StoreResult<&'a [u8]> {
        let (bytes, used) = get_len_prefixed(self.rest).ok_or_else(|| corrupt(what))?;
        self.rest = &self.rest[used..];
        Ok(bytes)
    }
}

/// Decode every cell of `run` onto `out`. On `Err`, `out` may hold part
/// of the run.
pub(crate) fn decode_run(run: &[u8], out: &mut Vec<(CellKey, Cell)>) -> StoreResult<()> {
    let mut reader = RunReader::new(run);
    while let Some(cell) = reader.next_cell()? {
        out.push((CellKey::new(reader.row(), cell.column), cell.to_cell()));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn encode(cells: &[(CellKey, Cell)]) -> Vec<u8> {
        let (mut run, mut out) = (RunEncoder::default(), Vec::new());
        for (key, cell) in cells {
            run.push(&mut out, key, cell);
        }
        out
    }

    fn decode(run: &[u8]) -> StoreResult<Vec<(CellKey, Cell)>> {
        let mut out = Vec::new();
        decode_run(run, &mut out).map(|()| out)
    }

    /// Every shape the layout distinguishes.
    pub(crate) fn mixed_cells() -> Vec<(CellKey, Cell)> {
        vec![
            (CellKey::new("user-17", "U1"), Cell::live("data", 99, Some(5))),
            (CellKey::new("user-170", "U1"), Cell::live_in("bin", Codec::Mbf, 7, None)),
            (CellKey::new("user-170", "zipf-counter"), Cell::tombstone(u64::MAX)),
            (CellKey::new("", "U1"), Cell::live(Vec::<u8>::new(), 0, Some(0))),
            (CellKey::new([0u8, 255], [128u8]), Cell::live("v", 3, Some(u64::MAX))),
        ]
    }

    #[test]
    fn a_run_round_trips_every_cell_shape() {
        let cells = mixed_cells();
        assert_eq!(decode(&encode(&cells)).unwrap(), cells);
        assert_eq!(decode(&[]).unwrap(), vec![]);
    }

    #[test]
    fn a_run_has_the_documented_byte_layout() {
        let cells = &mixed_cells()[..3];
        #[rustfmt::skip]
        let expected: Vec<u8> = [
            &[0u8, 7][..], b"user-17", &[0b100, 2], b"U1",   // new column 0, TTL
            &[0xc6, 0x01, 5], &[4], b"data",          // zigzag(+99) = 198, ttl 5
            &[7, 1], b"0", &[0b010, 0xb7, 0x01],       // shares "user-17", MBF, zigzag(-92)
            &[3], b"bin",
            &[8, 0], &[0b1001, 12], b"zipf-counter",   // new column 1, tombstone, no value
            &[15],                                    // u64::MAX is 7 - 8 (wrapping)
        ]
        .concat();
        assert_eq!(encode(cells), expected);
    }

    #[test]
    fn every_prefix_of_a_run_decodes_to_a_prefix_of_its_cells_or_errs() {
        let cells = mixed_cells();
        let run = encode(&cells);
        for cut in 0..run.len() {
            let mut out = Vec::new();
            let result = decode_run(&run[..cut], &mut out);
            assert!(cells.starts_with(&out), "cut at {cut}");
            assert!(result.is_err() || out.len() < cells.len(), "cut at {cut}");
        }
    }

    #[test]
    fn a_column_or_prefix_the_run_has_not_defined_is_corrupt() {
        // Column index 1 before any column is named.
        assert!(decode(&[0, 1, b'k', 1 << FLAG_BITS, 0, 0]).is_err());
        // A row sharing more than the previous row holds.
        assert!(decode(&[3, 1, b'k', 0, 1, b'U', 0, 0]).is_err());
        // A column index far past the table.
        assert!(decode(&[0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1]).is_err());
    }
}
