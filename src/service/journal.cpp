#include "service/journal.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>

#include "util/atomic_file.hpp"
#include "util/framing.hpp"
#include "util/log.hpp"
#include "util/obs.hpp"

namespace tracesel::service {

namespace {

constexpr char kRecordTag[] = "tracesel-jrec";
constexpr std::uint32_t kRecordVersion = 1;
constexpr char kJournalName[] = "jobs.journal";
/// Replay streams the log in chunks of this size.
constexpr std::size_t kReplayChunkBytes = 1u << 20;
static_assert(JobJournal::kResultBudgetBytes < util::kMaxFrameBytes / 2,
              "a kept result must fit one frame");

std::string hex64(std::uint64_t v) {
  char buf[17];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  return std::string(buf, static_cast<std::size_t>(end - buf));
}

bool to_u64(std::string_view tok, std::uint64_t& out, int base = 10) {
  const char* first = tok.data();
  const char* last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(first, last, out, base);
  return ec == std::errc{} && ptr == last;
}

util::Status make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
    return util::Status::success();
  return util::Error{util::ErrorCode::kInternal,
                     "journal: cannot create " + path + ": " +
                         std::strerror(errno)};
}

/// "tracesel-jrec <version> <event> <job_id>[ <aux>]\n[<body>]".
std::string record_payload(std::string_view event, std::uint64_t job_id,
                           std::string_view aux = {},
                           std::string_view body = {}) {
  std::string out = kRecordTag;
  out += ' ';
  out += std::to_string(kRecordVersion);
  out += ' ';
  out += event;
  out += ' ';
  out += std::to_string(job_id);
  if (!aux.empty()) {
    out += ' ';
    out += aux;
  }
  out += '\n';
  out += body;
  return out;
}

/// "request <len>\n<request>\nreport <len>\n<report>\n" — the body of an
/// ok job's completed record.
std::string result_body(const JobRequest& request, std::string_view report) {
  const std::string req = serialize_job_request(request);
  std::string body;
  body.reserve(req.size() + report.size() + 64);
  body += "request " + std::to_string(req.size()) + '\n';
  body += req;
  body += '\n';
  body += "report " + std::to_string(report.size()) + '\n';
  body += report;
  body += '\n';
  return body;
}

/// Inverse of result_body; false when the blocks are malformed.
bool parse_result_body(std::string_view body, JobRequest& request,
                       std::string& report) {
  const auto take = [&](std::string_view name,
                        std::string_view& out) -> bool {
    const std::size_t eol = body.find('\n');
    if (eol == std::string_view::npos) return false;
    std::string_view line = body.substr(0, eol);
    if (!line.starts_with(name) || line.size() <= name.size() ||
        line[name.size()] != ' ')
      return false;
    std::uint64_t n = 0;
    if (!to_u64(line.substr(name.size() + 1), n)) return false;
    body.remove_prefix(eol + 1);
    if (n >= body.size() || body[n] != '\n') return false;
    out = body.substr(0, static_cast<std::size_t>(n));
    body.remove_prefix(static_cast<std::size_t>(n) + 1);
    return true;
  };
  std::string_view req_text, report_text;
  if (!take("request", req_text) || !take("report", report_text) ||
      !body.empty())
    return false;
  auto req = parse_job_request(req_text);
  if (!req.ok()) return false;
  request = std::move(req).value();
  report = std::string(report_text);
  return true;
}

struct ParsedRecord {
  std::string event;
  std::uint64_t job_id = 0;
  std::uint64_t aux = 0;
  std::string_view body;
};

/// Record-level parse; nullopt-style via bool return. A failure here drops
/// only this record — the frame layer already validated its boundaries.
bool parse_record(std::string_view payload, ParsedRecord& out) {
  const std::size_t eol = payload.find('\n');
  if (eol == std::string_view::npos) return false;
  std::string_view head = payload.substr(0, eol);
  out.body = payload.substr(eol + 1);

  // Tokenize "<tag> <version> <event> <id>[ <aux>]".
  std::vector<std::string_view> tok;
  while (!head.empty()) {
    const std::size_t sp = head.find(' ');
    tok.push_back(head.substr(0, sp));
    if (sp == std::string_view::npos) break;
    head.remove_prefix(sp + 1);
  }
  if (tok.size() < 4 || tok[0] != kRecordTag) return false;
  std::uint64_t version = 0;
  if (!to_u64(tok[1], version) || version != kRecordVersion) return false;
  out.event = std::string(tok[2]);
  if (!to_u64(tok[3], out.job_id)) return false;
  if (tok.size() >= 5 && !to_u64(tok[4], out.aux, 16)) return false;
  return true;
}

}  // namespace

JobJournal::~JobJournal() { close(); }

void JobJournal::close() {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  std::lock_guard<std::mutex> rlk(results_mu_);
  results_.clear();
  result_age_.clear();
  result_bytes_ = 0;
}

bool JobJournal::enabled() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fd_ >= 0;
}

std::string JobJournal::path() const {
  return options_.dir + "/" + kJournalName;
}

std::uint64_t JobJournal::bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return size_;
}

std::uint64_t JobJournal::rotations() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rotations_;
}

std::uint64_t JobJournal::records_appended() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

util::Result<JournalRecovery> JobJournal::open(JournalOptions options) {
  using R = util::Result<JournalRecovery>;
  close();
  if (options.dir.empty())
    return R::err(util::ErrorCode::kInvalidArgument,
                  "journal: no directory given");
  options_ = std::move(options);
  if (auto st = make_dir(options_.dir); !st.ok()) return st.error();

  JournalRecovery rec;
  std::lock_guard<std::mutex> lk(mu_);
  live_.clear();
  size_ = 0;
  compacted_size_ = 0;
  std::vector<RecoveredJob> pending;  // admission order

  // One well-framed record. A failure here drops only this record — the
  // frame layer already validated its boundaries.
  const auto replay = [&](const std::string& payload) {
    ParsedRecord r;
    if (!parse_record(payload, r)) {
      // Intact frame, malformed record (e.g. version skew): drop just it.
      ++rec.dropped_records;
      return;
    }
    ++rec.replayed_records;
    rec.next_job_id = std::max(rec.next_job_id, r.job_id + 1);
    const auto it = std::find_if(
        pending.begin(), pending.end(),
        [&](const RecoveredJob& j) { return j.id == r.job_id; });
    if (r.event == "accepted") {
      auto req = parse_job_request(r.body);
      if (!req.ok()) {
        ++rec.dropped_records;  // a job we cannot rebuild cannot replay
        return;
      }
      if (it == pending.end()) {
        RecoveredJob j;
        j.id = r.job_id;
        j.request = std::move(req).value();
        pending.push_back(std::move(j));
      }
    } else if (r.event == "started") {
      if (it != pending.end()) it->started = true;
    } else if (r.event == "completed") {
      if (!r.body.empty()) {
        StoredResult res;
        if (r.aux == 0 || !parse_result_body(r.body, res.request, res.report)) {
          ++rec.dropped_records;  // the job recomputes rather than trust it
          return;
        }
        res.job_id = r.job_id;
        res.cost = r.body.size();
        index_result_locked(r.aux, std::move(res));
      }
      ++rec.completed;  // duplicates are idempotent by construction
      if (it != pending.end()) pending.erase(it);
    } else if (r.event == "cancelled") {
      ++rec.cancelled;
      if (it != pending.end()) pending.erase(it);
    } else {
      ++rec.dropped_records;
    }
  };

  // --- replay: stream the log through the frame codec ---
  // Every frame the reader yields before poisoning is a good record; the
  // good prefix length is (bytes fed) - (bytes still buffered) at that
  // point, which is exactly where a torn tail must be truncated. An
  // absent journal is a fresh start; one that exists but cannot be read
  // is an error, never an empty log the next compaction would overwrite.
  const int in = ::open(path().c_str(), O_RDONLY | O_CLOEXEC);
  if (in < 0 && errno != ENOENT)
    return R::err(util::ErrorCode::kInternal,
                  "journal: cannot read " + path() + ": " +
                      std::strerror(errno));
  std::uint64_t file_bytes = 0;
  std::uint64_t good_offset = 0;
  if (in >= 0) {
    struct stat st;
    if (::fstat(in, &st) == 0)
      file_bytes = static_cast<std::uint64_t>(st.st_size);
    util::FrameReader reader(util::kMaxFrameBytes);
    std::vector<char> chunk(kReplayChunkBytes);
    std::uint64_t fed = 0;
    std::string payload;
    bool corrupt = false;
    while (!corrupt) {
      const ssize_t n = ::read(in, chunk.data(), chunk.size());
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        const int err = errno;
        ::close(in);
        return R::err(util::ErrorCode::kInternal,
                      "journal: cannot read " + path() + ": " +
                          std::strerror(err));
      }
      if (n == 0) break;
      reader.feed(chunk.data(), static_cast<std::size_t>(n));
      fed += static_cast<std::uint64_t>(n);
      for (;;) {
        const auto st = reader.next(payload);
        if (st == util::FrameReader::State::kCorrupt) corrupt = true;
        if (st != util::FrameReader::State::kFrame) break;
        good_offset = fed - reader.buffered();
        replay(payload);
      }
    }
    file_bytes = std::max(file_bytes, fed);
    ::close(in);
  }
  if (good_offset < file_bytes) {
    // Torn or corrupt tail: truncate-and-continue. At least one record's
    // worth of bytes is gone; framing cannot say how many.
    rec.dropped_bytes = file_bytes - good_offset;
    ++rec.dropped_records;
    if (::truncate(path().c_str(), static_cast<off_t>(good_offset)) != 0 &&
        errno != ENOENT)
      util::Log(util::LogLevel::kWarn)
          << "journal: cannot truncate torn tail of " << path() << ": "
          << std::strerror(errno);
  }
  rec.pending = pending;

  // Seed the live set so the next compaction preserves the replayed jobs.
  for (const RecoveredJob& j : pending) {
    LiveJob lj;
    lj.id = j.id;
    lj.accepted_payload =
        record_payload("accepted", j.id, {}, serialize_job_request(j.request));
    lj.started = j.started;
    live_.push_back(std::move(lj));
  }

  fd_ = ::open(path().c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0666);
  if (fd_ < 0)
    return R::err(util::ErrorCode::kInternal,
                  "journal: cannot open " + path() + " for append: " +
                      std::strerror(errno));
  struct stat st;
  if (::fstat(fd_, &st) == 0) size_ = static_cast<std::uint64_t>(st.st_size);

  OBS_COUNT("svc.journal.dropped_records", rec.dropped_records);
  OBS_COUNT("svc.journal.dropped_bytes", rec.dropped_bytes);
  OBS_COUNT("svc.journal.recovered_jobs", rec.pending.size());
  rec.note = "journal: replayed " + std::to_string(rec.replayed_records) +
             " record(s), " + std::to_string(rec.pending.size()) +
             " pending job(s), " + std::to_string(rec.completed) +
             " completed, dropped " + std::to_string(rec.dropped_records) +
             " record(s) / " + std::to_string(rec.dropped_bytes) + " byte(s)";
  return rec;
}

void JobJournal::append(std::uint64_t job_id, const std::string& payload,
                        Kind kind, std::uint64_t result_key,
                        StoredResult* result) {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ < 0) {
    // Never opened: the index alone, with nothing to write.
    if (result != nullptr) index_result_locked(result_key, std::move(*result));
    return;
  }
  // The shared framing write loop (EINTR-retried, full write); the journal
  // appender must never reimplement it.
  const auto st = util::write_frame(fd_, payload);
  if (!st.ok()) {
    util::Log(util::LogLevel::kError)
        << "journal: append failed: " << st.error().to_string();
    return;
  }
  // A started record needs no sync of its own: replay recomputes started
  // and unstarted jobs alike, and the next synced record carries it.
  if (kind != Kind::kStarted) sync_locked();
  size_ += util::kFrameHeaderBytes + payload.size();
  ++records_;
  OBS_COUNT("svc.journal.records", 1);

  switch (kind) {
    case Kind::kAccepted: {
      LiveJob lj;
      lj.id = job_id;
      lj.accepted_payload = payload;
      live_.push_back(std::move(lj));
      break;
    }
    case Kind::kStarted: {
      const auto it =
          std::find_if(live_.begin(), live_.end(),
                       [&](const LiveJob& j) { return j.id == job_id; });
      if (it != live_.end()) it->started = true;
      break;
    }
    case Kind::kTerminal:
      live_.erase(
          std::remove_if(live_.begin(), live_.end(),
                         [&](const LiveJob& j) { return j.id == job_id; }),
          live_.end());
      break;
  }
  // Only now is the result durable, so only now may it be served.
  if (result != nullptr) index_result_locked(result_key, std::move(*result));

  // Twice the compacted size keeps compaction amortized once the retained
  // results alone exceed rotate_bytes.
  if (options_.rotate_bytes > 0 &&
      size_ > std::max(options_.rotate_bytes, 2 * compacted_size_))
    rotate_locked();
}

void JobJournal::sync_locked() {
  if (!options_.fsync) return;
  OBS_SPAN("svc.journal.sync");
  ::fsync(fd_);
  OBS_COUNT("svc.journal.syncs", 1);
}

void JobJournal::rotate_locked() {
  // Compaction: the journal's truth is the result index plus the live set,
  // so rewrite one completed record per indexed result (oldest first, so
  // replay rebuilds the same eviction order) and the records of
  // still-unfinished jobs. atomic_write_file gives the full temp + fsync +
  // rename + parent-fsync discipline; a crash mid-rotation leaves either
  // the old log or the new one, never a hybrid.
  std::string compacted;
  for (const auto& [seq, rkey] : result_age_) {
    const StoredResult& res = results_.at(rkey);
    compacted += util::encode_frame(
        record_payload("completed", res.job_id, hex64(rkey),
                       result_body(res.request, res.report)));
  }
  for (const LiveJob& j : live_) {
    compacted += util::encode_frame(j.accepted_payload);
    if (j.started)
      compacted += util::encode_frame(record_payload("started", j.id));
  }
  const auto st = util::atomic_write_file(path(), compacted);
  if (!st.ok()) {
    util::Log(util::LogLevel::kWarn)
        << "journal: rotation failed (keeping the long log): "
        << st.error().to_string();
    return;
  }
  OBS_COUNT("svc.journal.syncs", 2);  // the new log and its directory
  ::close(fd_);
  fd_ = ::open(path().c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0666);
  if (fd_ < 0) {
    util::Log(util::LogLevel::kError)
        << "journal: cannot reopen " << path() << " after rotation: "
        << std::strerror(errno);
    return;
  }
  size_ = compacted.size();
  compacted_size_ = size_;
  ++rotations_;
  OBS_COUNT("svc.journal.rotations", 1);
}

void JobJournal::accepted(std::uint64_t job_id, const JobRequest& request) {
  append(job_id,
         record_payload("accepted", job_id, {}, serialize_job_request(request)),
         Kind::kAccepted);
}

void JobJournal::started(std::uint64_t job_id) {
  append(job_id, record_payload("started", job_id), Kind::kStarted);
}

void JobJournal::completed(std::uint64_t job_id, std::uint64_t result_hash) {
  append(job_id, record_payload("completed", job_id, hex64(result_hash)),
         Kind::kTerminal);
}

void JobJournal::completed(std::uint64_t job_id, std::uint64_t result_key,
                           const JobRequest& request,
                           std::string_view report_json) {
  std::string body = result_body(request, report_json);
  // A report over the whole result budget is not kept: the job still
  // completes, and a resubmission recomputes it.
  if (body.size() > kResultBudgetBytes) {
    completed(job_id, result_key);
    return;
  }
  StoredResult res{job_id, request, std::string(report_json), body.size()};
  append(job_id,
         record_payload("completed", job_id, hex64(result_key), body),
         Kind::kTerminal, result_key, &res);
}

void JobJournal::index_result_locked(std::uint64_t key, StoredResult res) {
  std::lock_guard<std::mutex> lk(results_mu_);
  const auto drop = [&](std::unordered_map<std::uint64_t,
                                           StoredResult>::iterator it) {
    result_bytes_ -= it->second.cost;
    result_age_.erase(it->second.seq);
    results_.erase(it);
  };
  if (const auto it = results_.find(key); it != results_.end()) drop(it);
  if (res.cost > kResultBudgetBytes) return;
  while (result_bytes_ + res.cost > kResultBudgetBytes)
    drop(results_.find(result_age_.begin()->second));
  res.seq = next_result_seq_++;
  result_age_.emplace(res.seq, key);
  result_bytes_ += res.cost;
  results_.insert_or_assign(key, std::move(res));
}

void JobJournal::cancelled(std::uint64_t job_id) {
  append(job_id, record_payload("cancelled", job_id), Kind::kTerminal);
}

util::Result<std::string> JobJournal::load_result(
    std::uint64_t result_key, const JobRequest& request) const {
  using R = util::Result<std::string>;
  std::lock_guard<std::mutex> lk(results_mu_);
  const auto it = results_.find(result_key);
  if (it == results_.end())
    return R::err(util::ErrorCode::kInvalidArgument,
                  "journal: no durable result for this key");
  if (!it->second.request.same_computation(request))
    return R::err(util::ErrorCode::kInternal,
                  "journal: result-key collision (different computation); "
                  "recomputing");
  return it->second.report;
}

}  // namespace tracesel::service
