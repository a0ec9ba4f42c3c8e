// Fixture: a text serializer writing doubles as hex floats.
#include <ostream>

void
ChipActivity::serialize(std::ostream &out) const
{
    out << "chip-activity " << core_activity_fields << ' '
        << mem_activity_fields << '\n';
    out << "totals " << strformat("%a", elapsed_s) << '\n';
    // lint: float-text-ok(human-readable echo, never parsed back)
    out << "# approx " << strformat("%.1f W", total_w) << '\n';
}
