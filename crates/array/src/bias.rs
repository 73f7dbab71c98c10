//! Standard operating voltages (the paper's Table 1).

/// A memory operation on a 1T-1R cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// One-time electro-forming.
    Forming,
    /// RESET (switch to HRS).
    Reset,
    /// SET (switch to LRS).
    Set,
    /// Read.
    Read,
}

/// Word-line / bit-line / source-line bias levels for one operation (V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasSet {
    /// Word-line (access-transistor gate) voltage.
    pub wl: f64,
    /// Bit-line voltage.
    pub bl: f64,
    /// Source-line voltage.
    pub sl: f64,
}

impl BiasSet {
    /// The paper's Table 1 values.
    ///
    /// | op   | WL    | BL    | SL    |
    /// |------|-------|-------|-------|
    /// | FMG  | 2.0 V | 3.3 V | 0 V   |
    /// | RST  | 2.5 V | 0 V   | 1.2 V |
    /// | SET  | 2.0 V | 1.2 V | 0 V   |
    /// | READ | 2.5 V | 0.2 V | 0 V   |
    pub fn standard(op: Operation) -> Self {
        match op {
            Operation::Forming => BiasSet {
                wl: 2.0,
                bl: 3.3,
                sl: 0.0,
            },
            Operation::Reset => BiasSet {
                wl: 2.5,
                bl: 0.0,
                sl: 1.2,
            },
            Operation::Set => BiasSet {
                wl: 2.0,
                bl: 1.2,
                sl: 0.0,
            },
            Operation::Read => BiasSet {
                wl: 2.5,
                bl: 0.2,
                sl: 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let fmg = BiasSet::standard(Operation::Forming);
        assert_eq!((fmg.wl, fmg.bl, fmg.sl), (2.0, 3.3, 0.0));
        let rst = BiasSet::standard(Operation::Reset);
        assert_eq!((rst.wl, rst.bl, rst.sl), (2.5, 0.0, 1.2));
        let set = BiasSet::standard(Operation::Set);
        assert_eq!((set.wl, set.bl, set.sl), (2.0, 1.2, 0.0));
        let read = BiasSet::standard(Operation::Read);
        assert_eq!((read.wl, read.bl, read.sl), (2.5, 0.2, 0.0));
    }

    #[test]
    fn reset_reverses_polarity() {
        let rst = BiasSet::standard(Operation::Reset);
        let set = BiasSet::standard(Operation::Set);
        // RESET drives SL high / BL low; SET the reverse.
        assert!(rst.sl > rst.bl);
        assert!(set.bl > set.sl);
    }
}
