//! One module per paper artifact; each exposes `run` (pure, returns a
//! serializable result) and `print` (emits the paper-style rows).

pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod table1;
pub mod table2;
