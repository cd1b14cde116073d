#include "serve/job.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <unordered_set>

#include "util/fault.hpp"
#include "util/json.hpp"

namespace tv::serve {

std::string format_time_limit(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", seconds);
  return buf;
}

std::optional<JobSpec> parse_job_line(const std::string& line, std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<JobSpec> {
    if (error) *error = why;
    return std::nullopt;
  };
  std::string syntax_error;
  std::optional<json::Value> root = json::parse(line, &syntax_error);
  if (!root) return fail(syntax_error);
  if (root->type != json::Value::Type::Object) return fail("a job line must be a JSON object");
  JobSpec job;
  for (const auto& [key, value] : root->members) {
    bool is_string = value.type == json::Value::Type::String;
    bool is_bool = value.type == json::Value::Type::Bool;
    if (key == "id" || key == "design") {
      if (!is_string) return fail("\"" + key + "\" must be a string");
      (key == "id" ? job.id : job.design) = value.text;
    } else if (key == "stdlib" || key == "compiled") {
      if (!is_bool) return fail("\"" + key + "\" must be a boolean");
      (key == "stdlib" ? job.stdlib : job.compiled) = value.boolean;
    } else if (key == "time_limit") {
      std::optional<double> v = value.as_double();
      if (!v || *v < 0) return fail("\"time_limit\" must be a non-negative number");
      job.time_limit = *v;
    } else if (key == "jobs") {
      std::optional<std::int64_t> v = value.as_int64();
      if (!v || *v < 0 || *v > std::numeric_limits<unsigned>::max()) {
        return fail("\"jobs\" must be a non-negative integer");
      }
      job.jobs = static_cast<unsigned>(*v);
    } else if (key == "reverify") {
      if (!is_string || value.text.empty()) {
        return fail("\"reverify\" must be a non-empty delta file path");
      }
      job.reverify = value.text;
    } else if (key == "fault") {
      if (!is_string) return fail("\"fault\" must be a string");
      // Validate eagerly so a typo'd chaos spec fails the batch load, not
      // silently runs every worker clean. A shape check (site@N:action per
      // comma-entry) suffices: the worker validates entries at startup.
      const std::string& spec = value.text;
      std::size_t from = 0;
      while (from <= spec.size()) {
        std::size_t comma = spec.find(',', from);
        if (comma == std::string::npos) comma = spec.size();
        std::string part = spec.substr(from, comma - from);
        if (!part.empty()) {
          std::size_t at = part.find('@');
          std::size_t colon = at == std::string::npos ? std::string::npos
                                                      : part.find(':', at);
          std::string action =
              colon == std::string::npos ? "" : part.substr(colon + 1);
          if (at == std::string::npos || at == 0 || colon == std::string::npos ||
              (action != "fail" && action != "abort" && action != "hang" &&
               action != "kill9" && action != "bloat")) {
            return fail("\"fault\" entry \"" + part + "\" is not site@N:action");
          }
        }
        from = comma + 1;
      }
      job.fault = spec;
    } else if (key == "fault_attempts") {
      std::optional<std::int64_t> v = value.as_int64();
      if (!v || *v < 0 || *v > std::numeric_limits<int>::max()) {
        return fail("\"fault_attempts\" must be a non-negative integer");
      }
      job.fault_attempts = static_cast<int>(*v);
    } else {
      return fail("unknown key \"" + key + "\"");
    }
  }
  if (job.id.empty()) return fail("missing \"id\"");
  if (job.design.empty()) return fail("missing \"design\"");
  return job;
}

std::optional<std::vector<JobSpec>> parse_job_file(const std::string& path,
                                                   std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<std::vector<JobSpec>> {
    if (error) *error = path + ": " + why;
    return std::nullopt;
  };
  std::ifstream in(path);
  if (!in) return fail("cannot open");
  if (fault::should_fail("io.read")) return fail("injected read failure");
  std::vector<JobSpec> jobs;
  std::unordered_set<std::string> seen;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    std::string line_error;
    std::optional<JobSpec> job = parse_job_line(line, &line_error);
    if (!job) return fail("line " + std::to_string(lineno) + ": " + line_error);
    if (!seen.insert(job->id).second) {
      return fail("line " + std::to_string(lineno) + ": duplicate job id \"" +
                  job->id + "\"");
    }
    jobs.push_back(std::move(*job));
  }
  return jobs;
}

std::vector<std::string> worker_args(const JobSpec& job) {
  std::vector<std::string> args;
  if (job.compiled) args.push_back("--compiled");
  if (job.stdlib) args.push_back("--stdlib");
  if (job.time_limit > 0) {
    args.push_back("--time-limit");
    args.push_back(format_time_limit(job.time_limit));
  }
  if (job.jobs > 0) {
    args.push_back("--jobs");
    args.push_back(std::to_string(job.jobs));
  }
  if (!job.reverify.empty()) {
    args.push_back("--reverify");
    args.push_back(job.reverify);
  }
  args.push_back(job.design);
  return args;
}

}  // namespace tv::serve
