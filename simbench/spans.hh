/**
 * @file
 * Spans recorded by the benchmark around its calls into the
 * simulator, written out as Chrome trace-event JSON after the run.
 *
 * Two clocks share one file, each as its own trace "process":
 *  - pid 0 "host": host spans in wall-clock microseconds since the
 *    recorder started -- ShrimpSystem construction, Kernel set-up
 *    calls, XpressBus::postWrite, Dsm::acquire and each runFor slice;
 *  - pid 1 "simulated": one span per benchmark operation in simulated
 *    microseconds, from when it was due to when it was verified.
 * Every span carries the operation id ("op", 0 when it serves none)
 * and names its cause: the enclosing span and its index.
 *
 * Recording is off unless a recorder is installed (spans() != null);
 * the untraced runs pay one pointer test per site.
 */

#ifndef SIMBENCH_SPANS_HH
#define SIMBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace simbench
{

class SpanLog
{
  public:
    SpanLog();

    /** Host microseconds since construction. */
    double nowUs() const;

    void host(const char *name, std::uint64_t op, const char *cause,
              std::uint64_t cause_idx, double start_us, double end_us);
    void sim(const char *name, std::uint64_t op, const char *cause,
             std::uint64_t cause_idx, double start_us, double end_us);

    /** Write Chrome trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        const char *cause;
        std::uint64_t op;
        std::uint64_t causeIdx;
        double start, end;
        int pid;
    };

    std::chrono::steady_clock::time_point _t0;
    std::vector<Span> _spans;
};

/** The installed recorder, or nullptr when this run is untraced. */
SpanLog *spans();
void installSpans(SpanLog *log);

/** RAII host span; records on destruction when a recorder is set. */
class HostSpan
{
  public:
    HostSpan(const char *name, std::uint64_t op = 0,
             const char *cause = "setup", std::uint64_t cause_idx = 0)
        : _log(spans()), _name(name), _cause(cause), _op(op),
          _causeIdx(cause_idx), _start(_log ? _log->nowUs() : 0.0)
    {}

    ~HostSpan()
    {
        if (_log)
            _log->host(_name, _op, _cause, _causeIdx, _start,
                       _log->nowUs());
    }

    HostSpan(const HostSpan &) = delete;
    HostSpan &operator=(const HostSpan &) = delete;

  private:
    SpanLog *_log;
    const char *_name;
    const char *_cause;
    std::uint64_t _op;
    std::uint64_t _causeIdx;
    double _start;
};

} // namespace simbench

#endif // SIMBENCH_SPANS_HH
