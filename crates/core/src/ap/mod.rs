//! AP-side HIDE: the Client UDP Port Table, broadcast buffering,
//! Algorithm 1 flag calculation and beacon construction.

mod access_point;
mod buffer;
mod ctx;
mod flags;
mod port_table;
pub mod snapshot;

pub use access_point::{AccessPoint, BeaconMode};
pub use buffer::BroadcastBuffer;
pub use ctx::ApCtx;
pub use flags::{
    calculate_broadcast_flags, calculate_broadcast_flags_into, calculate_broadcast_flags_observed,
};
pub use port_table::{ClientPortTable, ExpiryReport, TableOpCounts};
pub use snapshot::{ApSnapshot, ClientSnapshot, PortEntrySnapshot};
