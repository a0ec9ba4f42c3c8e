// Fixture: an activity record layout that sizes the cores by the
// core field count but carries neither field count as a record
// field, so its reader could not detect schema drift.
template <typename IO, typename Activity>
void
activityRecord(IO &io, Activity &act)
{
    io.size(act.cores, "core count", perf::core_activity_fields);
    io.word(act.shader_cycles);
}

template <typename IO, typename Snapshot>
void
snapshotRecord(IO &io, Snapshot &snap)
{
    activityRecord(io, snap.kernels[0].perf.activity);
}
