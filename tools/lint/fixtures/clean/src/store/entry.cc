// Fixture: an activity record layout carrying the schema's field
// counts.
template <typename IO, typename Activity>
void
activityRecord(IO &io, Activity &act)
{
    io.size(act.cores, "core count", perf::core_activity_fields);
    io.constant(perf::core_activity_fields, "core counters");
    io.constant(perf::mem_activity_fields, "mem counters");
}
