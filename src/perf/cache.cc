#include "perf/cache.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace gpusimpow {
namespace perf {

CacheModel::CacheModel(const CacheParams &p) : _p(p)
{
    GSP_ASSERT(p.line_bytes > 0 && p.assoc > 0, "bad cache geometry");
    GSP_ASSERT(p.size_bytes >= p.line_bytes * p.assoc,
               "cache smaller than one set");
    _sets = p.size_bytes / (p.line_bytes * p.assoc);
    GSP_ASSERT(isPow2(_sets), "cache set count must be a power of two");
    _set_bits = floorLog2(_sets);
    _line_shift = isPow2(p.line_bytes) ? floorLog2(p.line_bytes) : 0;
    _lines.resize(static_cast<size_t>(_sets) * p.assoc);
}

CacheModel::Line *
CacheModel::findLine(uint64_t addr, uint64_t &set_base, uint64_t &tag)
{
    uint64_t line_addr =
        _line_shift ? addr >> _line_shift : addr / _p.line_bytes;
    uint64_t set = line_addr & (_sets - 1);
    tag = line_addr >> _set_bits;
    set_base = set * _p.assoc;
    for (unsigned w = 0; w < _p.assoc; ++w) {
        Line &line = _lines[set_base + w];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

bool
CacheModel::access(uint64_t addr, bool write)
{
    ++_accesses;
    ++_tick;
    uint64_t set_base = 0;
    uint64_t tag = 0;
    if (Line *line = findLine(addr, set_base, tag)) {
        line->lru = _tick;
        return true;
    }
    ++_misses;
    if (write && !_p.allocate_on_write)
        return false;
    // Fill into the LRU way.
    Line *victim = &_lines[set_base];
    for (unsigned w = 1; w < _p.assoc; ++w) {
        Line &cand = _lines[set_base + w];
        if (!cand.valid) {
            victim = &cand;
            break;
        }
        if (cand.lru < victim->lru)
            victim = &cand;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = _tick;
    return false;
}

void
CacheModel::flush()
{
    for (auto &line : _lines)
        line.valid = false;
}

} // namespace perf
} // namespace gpusimpow
