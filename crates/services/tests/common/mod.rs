//! Shared by the integration suites: tests take the driver as an
//! input instead of looping over both themselves.

/// Runs `test` under each driver, passing the value for
/// `event_loop(..)`: `true` for the reactor, `false` for the blocking
/// driver.
pub fn for_each_driver(test: impl Fn(bool)) {
    for event in [true, false] {
        test(event);
    }
}
