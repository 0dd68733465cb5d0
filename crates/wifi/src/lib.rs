//! 802.11 substrate for the HIDE reproduction.
//!
//! This crate implements everything the HIDE protocol (Peng et al., ICDCS
//! 2016) needs from the 802.11 stack, built from scratch:
//!
//! * MAC addressing, association IDs and frame-control fields ([`mac`]),
//! * wire-format encoding/decoding of beacon frames, the new *UDP Port
//!   Message* management frame, ACKs and UDP-padded broadcast data frames
//!   ([`frame`]),
//! * information elements including the standard TIM, the paper's new
//!   Broadcast Traffic Indication Map (BTIM, element ID 201) and Open UDP
//!   Ports (element ID 200) elements ([`ie`]),
//! * the partial-virtual-bitmap compression shared by TIM and BTIM
//!   ([`bitmap`]),
//! * LLC/SNAP + IPv4 + UDP payload parsing used by the AP to extract UDP
//!   destination ports from buffered broadcast frames ([`udp`]),
//! * a PHY airtime model for 802.11b rates ([`phy`]),
//! * the 802.11 time unit ([`timing`]), and
//! * the Bianchi DCF saturation-throughput model used by the paper's
//!   capacity-overhead analysis ([`dcf`]).
//!
//! # Example
//!
//! Build a beacon carrying a BTIM element and decode it back:
//!
//! ```
//! use hide_wifi::bitmap::PartialVirtualBitmap;
//! use hide_wifi::frame::Beacon;
//! use hide_wifi::ie::{Btim, InformationElement};
//! use hide_wifi::mac::{Aid, MacAddr};
//!
//! # fn main() -> Result<(), hide_wifi::WifiError> {
//! let mut bitmap = PartialVirtualBitmap::new();
//! bitmap.set(Aid::new(5)?);
//! let btim = Btim::new(bitmap);
//!
//! let beacon = Beacon::builder(MacAddr::new([2, 0, 0, 0, 0, 1]))
//!     .timestamp_us(1_024_000)
//!     .dtim(0, 3)
//!     .element(InformationElement::Btim(btim))
//!     .build();
//!
//! let bytes = beacon.to_bytes();
//! let decoded = Beacon::parse(&bytes)?;
//! assert!(decoded.btim().unwrap().is_set(Aid::new(5)?));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assoc;
pub mod bitmap;
pub mod dcf;
pub mod error;
pub mod frame;
pub mod ie;
pub mod mac;
pub mod phy;
pub mod timing;
pub mod udp;

pub use error::WifiError;
pub use mac::{Aid, MacAddr};
pub use phy::DataRate;
