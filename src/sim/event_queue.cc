#include "sim/event_queue.hh"

#include <memory>

#include "sim/logging.hh"

namespace shrimp
{

Event::~Event()
{
    // Components are routinely destroyed with events still pending
    // (system teardown): invalidate our queue entry without touching
    // the heap. The queue must outlive all embedded events; in this
    // simulator the EventQueue is always the first member of the
    // top-level system and therefore destroyed last.
    if (_scheduled && _queue) {
        _stamp = 0;
        _scheduled = false;
        _queue->noteDead();
    }
}

EventQueue::~EventQueue()
{
    // Reclaim one-shots that never fired; each is owned by its single
    // heap entry. Never dereference a non-owned entry's event: it has
    // fired, been cancelled or died via ~Event(), and may dangle.
    for (; !_queue.empty(); _queue.pop()) {
        if (_queue.top().owned)
            // NOLINTNEXTLINE(shrimp-ownership-raw-new): entry-owned one-shot
            delete _queue.top().ev;
    }
}

void
EventQueue::schedule(Event *ev, Tick when, int priority)
{
    insert(ev, when, priority, false);
}

void
EventQueue::insert(Event *ev, Tick when, int priority, bool owned)
{
    SHRIMP_ASSERT(ev != nullptr, "null event");
    SHRIMP_ASSERT(!ev->_scheduled,
                  "double-schedule of '", ev->description(), "'");
    SHRIMP_ASSERT(when >= _curTick, "schedule in the past: ", when,
                  " < ", _curTick, " for '", ev->description(), "'");

    ev->_when = when;
    ev->_priority = priority;
    ev->_stamp = _nextStamp++;
    ev->_scheduled = true;
    ev->_queue = this;
    _queue.push(
        QueueEntry{when, priority, owned, _nextSeq++, ev->_stamp, ev});
    ++_liveCount;
}

void
EventQueue::deschedule(Event *ev)
{
    SHRIMP_ASSERT(ev != nullptr, "null event");
    SHRIMP_ASSERT(ev->_scheduled,
                  "deschedule of unscheduled '", ev->description(), "'");

    // Lazy removal: invalidate the stamp; the heap entry is skipped when
    // it reaches the top.
    ev->_stamp = 0;
    ev->_scheduled = false;
    --_liveCount;
}

void
EventQueue::reschedule(Event *ev, Tick when, int priority)
{
    if (ev->_scheduled)
        deschedule(ev);
    schedule(ev, when, priority);
}

void
EventQueue::scheduleFn(std::function<void()> fn, Tick when, int priority,
                       const char *desc)
{
    auto ev = std::make_unique<EventFunctionWrapper>(std::move(fn), desc);
    insert(ev.get(), when, priority, true);
    // insert() passed its checks: the entry owns the event from here on,
    // and runOne() or ~EventQueue() frees it.
    static_cast<void>(ev.release());
}

void
EventQueue::skipDead()
{
    while (!_queue.empty()) {
        const QueueEntry &top = _queue.top();
        if (top.stamp == top.ev->_stamp && top.ev->_scheduled)
            return;
        _queue.pop();
    }
}

bool
EventQueue::runOne()
{
    skipDead();
    if (_queue.empty())
        return false;

    QueueEntry entry = _queue.top();
    _queue.pop();

    Event *ev = entry.ev;
    SHRIMP_ASSERT(entry.when >= _curTick, "time went backwards");
    _curTick = entry.when;

    ev->_scheduled = false;
    --_liveCount;
    ++_numProcessed;

    // An embedded `ev` may reschedule itself inside process(); an owned
    // one-shot cannot (no caller holds it) and is freed afterwards, also
    // when process() throws.
    std::unique_ptr<Event> one_shot(entry.owned ? ev : nullptr);
    ev->process();
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        ++n;
    return n;
}

void
EventQueue::runUntil(Tick when)
{
    for (;;) {
        skipDead();
        if (_queue.empty() || _queue.top().when > when)
            break;
        runOne();
    }
    if (when > _curTick)
        _curTick = when;
}

} // namespace shrimp
