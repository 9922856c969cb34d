// qarch_client — command-line client of a running qarchd.
//
//   qarch_client health --port 8787
//   qarch_client submit --port 8787 --key dev --generator ring --n 6 \
//                       --mixer "rx,ry" --p 2
//   qarch_client result --port 8787 --key dev --ticket t-1 --wait-ms 5000
//   qarch_client cancel --port 8787 --key dev --ticket t-1
//   qarch_client stats  --port 8787 --key dev
//   qarch_client eval   --port 8787 --key dev --edges "0-1,1-2,2-0" \
//                       --n 3 --mixer rx --p 1
//
// `eval` is submit + poll-to-completion with restart convergence (it
// resubmits if the daemon was restarted and forgot the ticket). Exit code 0
// on success, 1 on any error — the CI smoke job scripts against this.
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "server/client.hpp"

namespace {

using qarch::json::Value;

/// Parses "--edges 0-1,1-2,2-0[@w]" into the submit edge list.
Value edges_from_flag(const std::string& text) {
  Value edges = Value::array();
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t dash = item.find('-');
    QARCH_REQUIRE(dash != std::string::npos,
                  "--edges wants u-v[@weight] items, got: " + item);
    const std::size_t at = item.find('@', dash);
    Value edge = Value::array();
    edge.push_back(std::stod(item.substr(0, dash)));
    edge.push_back(std::stod(
        item.substr(dash + 1, at == std::string::npos ? std::string::npos
                                                      : at - dash - 1)));
    if (at != std::string::npos) edge.push_back(std::stod(item.substr(at + 1)));
    edges.push_back(std::move(edge));
  }
  return edges;
}

Value submit_body_from_cli(const qarch::Cli& cli) {
  Value body = Value::object();
  if (cli.has("edges")) {
    Value graph = Value::object();
    graph.set("n", static_cast<std::size_t>(cli.get_int("n", 0)));
    graph.set("edges", edges_from_flag(cli.get("edges", "")));
    body.set("graph", std::move(graph));
  } else {
    Value gen = Value::object();
    gen.set("name", cli.get("generator", "ring"));
    gen.set("n", static_cast<std::size_t>(cli.get_int("n", 6)));
    if (cli.has("degree"))
      gen.set("degree", static_cast<std::size_t>(cli.get_int("degree", 3)));
    if (cli.has("prob")) gen.set("prob", cli.get_double("prob", 0.5));
    if (cli.has("rows"))
      gen.set("rows", static_cast<std::size_t>(cli.get_int("rows", 2)));
    if (cli.has("cols"))
      gen.set("cols", static_cast<std::size_t>(cli.get_int("cols", 3)));
    if (cli.has("seed"))
      gen.set("seed", static_cast<std::size_t>(cli.get_int("seed", 7)));
    body.set("generator", std::move(gen));
  }
  body.set("mixer", cli.get("mixer", "rx"));
  body.set("p", static_cast<std::size_t>(cli.get_int("p", 1)));
  if (cli.has("budget"))
    body.set("budget", static_cast<std::size_t>(cli.get_int("budget", 0)));
  if (cli.has("engine")) body.set("engine", cli.get("engine", ""));
  // Sent unnarrowed: the daemon owns the priority bound, and a client-side
  // int cast would silently wrap an out-of-range value into an accepted one.
  if (cli.has("priority"))
    body.set("priority", static_cast<double>(cli.get_int("priority", 0)));
  if (cli.has("deadline-ms"))
    body.set("deadline_ms", cli.get_double("deadline-ms", 0.0));
  return body;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qarch;
  try {
    const Cli cli(argc, argv);
    QARCH_REQUIRE(!cli.positional().empty(),
                  "usage: qarch_client <health|stats|submit|result|cancel|"
                  "eval> --port N [--key KEY] [flags]");
    const std::string& command = cli.positional().front();

    server::ClientOptions options;
    options.host = cli.get("host", "127.0.0.1");
    options.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
    options.api_key = cli.get("key", "dev");
    options.max_retries = static_cast<int>(cli.get_int("retries", 8));
    options.request_timeout_seconds = cli.get_double("timeout", 60.0);
    server::QarchClient client(options);

    if (command == "health") {
      std::printf("%s\n", client.healthz().dump(2).c_str());
    } else if (command == "stats") {
      std::printf("%s\n", client.stats().dump(2).c_str());
    } else if (command == "submit") {
      std::printf("%s\n", client.submit(submit_body_from_cli(cli)).c_str());
    } else if (command == "result") {
      const json::Value out = client.result(
          cli.get("ticket", ""), cli.get_double("wait-ms", 0.0));
      std::printf("%s\n", out.dump(2).c_str());
    } else if (command == "cancel") {
      const bool ok = client.cancel(cli.get("ticket", ""));
      std::printf("%s\n", ok ? "cancelled" : "not cancelled");
    } else if (command == "eval") {
      const search::CandidateResult r =
          client.evaluate(submit_body_from_cli(cli),
                          cli.get_double("poll-ms", 500.0));
      std::printf(
          "mixer=%s p=%zu ratio=%.6f sampled_ratio=%.6f evaluations=%zu\n",
          r.mixer.to_string().c_str(), r.p, r.ratio, r.sampled_ratio,
          r.evaluations);
    } else {
      QARCH_REQUIRE(false, "unknown command: " + command);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qarch_client: error: %s\n", e.what());
    return 1;
  }
}
