#include "stm/conflict_class.hh"

#include <algorithm>

#include "mem/arena.hh"
#include "stm/tx_record.hh"

namespace hastm {

namespace {

void
sortUnique(std::vector<Addr> &lines)
{
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

} // namespace

std::vector<Addr>
TxFootprint::linesUnder(Addr rec) const
{
    std::vector<Addr> lines;
    for (const auto *log : {&rd_, &wr_}) {
        for (const Note &n : *log) {
            if (n.rec == rec)
                lines.push_back(n.line);
        }
    }
    sortUnique(lines);
    return lines;
}

void
TxFootprint::groupWrites()
{
    std::sort(wr_.begin(), wr_.end());
    wr_.erase(std::unique(wr_.begin(), wr_.end()), wr_.end());
    wrGrouped_ = wr_.size();
}

void
TxFootprint::writeLines(Addr rec, std::vector<Addr> &lines) const
{
    lines.clear();
    auto grouped_end = wr_.begin() + static_cast<std::ptrdiff_t>(wrGrouped_);
    for (auto it = std::lower_bound(wr_.begin(), grouped_end, Note{rec, 0});
         it != grouped_end && it->rec == rec; ++it)
        lines.push_back(it->line);
    for (auto it = grouped_end; it != wr_.end(); ++it) {
        if (it->rec == rec)
            lines.push_back(it->line);
    }
    sortUnique(lines);
}

ConflictClassifier::Verdict
ConflictClassifier::classify(const TxFootprint &mine, Addr self,
                             Addr rec, const MemArena &arena) const
{
    Verdict v;
    std::vector<Addr> my_lines = mine.linesUnder(rec);
    v.myLines = my_lines.size();
    if (my_lines.empty())
        return v;

    // The other side's written lines: prefer the live owner (the
    // conflicting transaction is usually still holding the record
    // when the loser classifies), fall back to the last release.
    std::vector<Addr> owner_lines;
    const std::vector<Addr> *theirs = nullptr;
    std::uint64_t recval = arena.read<std::uint64_t>(rec);
    if (!txrec::isVersion(recval) && recval != self) {
        auto owner = owners_.find(recval);
        if (owner != owners_.end()) {
            owner->second->writeLines(rec, owner_lines);
            if (!owner_lines.empty())
                theirs = &owner_lines;
        }
    }
    if (!theirs) {
        auto last = lastWrite_.find(rec);
        if (last != lastWrite_.end() && last->second.publisher != self)
            theirs = &last->second.lines;
    }
    if (!theirs || theirs->empty())
        return v;

    // my_lines is sorted (linesUnder dedups by sorting).
    for (Addr l : *theirs) {
        if (std::binary_search(my_lines.begin(), my_lines.end(), l)) {
            v.cls = ConflictClass::True;
            return v;
        }
    }
    v.cls = ConflictClass::Aliased;
    return v;
}

} // namespace hastm
