"""Work accounting.

The paper quantifies *total work* and *final work* with the DBMS cost
model, e.g. "the number of tuples processed by all operators" (section
2.1).  We use exactly that unit: every operator charges one unit per input
delta record it processes and one unit per output delta record it emits;
MIN/MAX aggregates additionally charge one unit per stored value rescanned
when a deletion removes the current extremum (the section 5.3 Q15 effect).
Stateful operators count the live state entries they maintain.

:class:`WorkMeter` counts all of these as integers; the engine turns them
into integer ``1/quantum`` work units per execution (see StreamConfig)
and converts work units to seconds with a fixed ``work_rate``.
"""


class WorkMeter:
    """Mutable counter shared by the physical operators of one subplan."""

    __slots__ = ("input_units", "output_units", "rescan_units",
                 "state_entries", "state_factor", "per_operator")

    def __init__(self, state_factor=0):
        self.input_units = 0
        self.output_units = 0
        self.rescan_units = 0
        self.state_entries = 0
        self.state_factor = state_factor
        self.per_operator = {}

    def charge_input(self, operator_name, units):
        self.input_units += units
        self._charge(operator_name, units)

    def charge_output(self, operator_name, units):
        self.output_units += units
        self._charge(operator_name, units)

    def charge_rescan(self, operator_name, units):
        self.rescan_units += units
        self._charge(operator_name, units)

    def charge_state(self, entries):
        """Per-execution state-store maintenance (see StreamConfig)."""
        self.state_entries += entries

    def _charge(self, operator_name, units):
        self.per_operator[operator_name] = self.per_operator.get(operator_name, 0) + units

    def reset(self):
        """Zero every counter (operator-tree reuse across runs)."""
        self.input_units = 0
        self.output_units = 0
        self.rescan_units = 0
        self.state_entries = 0
        self.per_operator.clear()

    @property
    def tuple_units(self):
        """Input, output and rescan units: the charges that delay results."""
        return self.input_units + self.output_units + self.rescan_units

    @property
    def state_units(self):
        """State maintenance in work units (a float view)."""
        return float(self.state_entries * self.state_factor)

    def snapshot(self):
        """Copy of the per-operator tuple units (for calibration reports)."""
        return dict(self.per_operator)

    def __repr__(self):
        return "WorkMeter(in=%d, out=%d, rescan=%d, state_entries=%d)" % (
            self.input_units, self.output_units, self.rescan_units,
            self.state_entries,
        )
