#include "spans.hh"

#include <cstdio>
#include <memory>

namespace simbench
{

namespace
{

SpanLog *g_spans = nullptr;

} // namespace

SpanLog *spans() { return g_spans; }
void installSpans(SpanLog *log) { g_spans = log; }

SpanLog::SpanLog() : _t0(std::chrono::steady_clock::now())
{
    _spans.reserve(1 << 16);
}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - _t0)
        .count();
}

void
SpanLog::host(const char *name, std::uint64_t op, const char *cause,
              std::uint64_t cause_idx, double start_us, double end_us)
{
    _spans.push_back({name, cause, op, cause_idx, start_us, end_us, 0});
}

void
SpanLog::sim(const char *name, std::uint64_t op, const char *cause,
             std::uint64_t cause_idx, double start_us, double end_us)
{
    _spans.push_back({name, cause, op, cause_idx, start_us, end_us, 1});
}

bool
SpanLog::write(const std::string &path) const
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f)
        return false;
    std::fputs("{\"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
               "\"args\": {\"name\": \"host (wall us)\"}},\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"simulated (us)\"}}",
               f.get());
    for (const Span &s : _spans) {
        std::fprintf(f.get(),
                     ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                     "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"op\": %llu, \"cause\": \"%s\", "
                     "\"cause_idx\": %llu}}",
                     s.name, s.pid, s.start, s.end - s.start,
                     static_cast<unsigned long long>(s.op), s.cause,
                     static_cast<unsigned long long>(s.causeIdx));
    }
    std::fputs("\n]}\n", f.get());
    return std::ferror(f.get()) == 0;
}

} // namespace simbench
