#include "graph/snapshot.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "graph/errors.hpp"
#include "util/random.hpp"

namespace ent::graph {

const char* to_string(UpdateOp op) {
  switch (op) {
    case UpdateOp::kAdd: return "add";
    case UpdateOp::kRemove: return "remove";
  }
  return "unknown";
}

namespace {

[[noreturn]] void format_fail(const std::string& path, std::uint64_t offset,
                              std::uint64_t line, const std::string& what) {
  throw GraphFormatError(ErrorLocation{path, offset, line}, what);
}

// Strict non-negative integer parse; the stream operators accept "-3" for
// unsigned types by wrapping, which is exactly the silent corruption the
// trust boundary exists to refuse.
bool parse_vertex(const std::string& token, vertex_t* out) {
  if (token.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 0xffffffffull) return false;
  }
  *out = static_cast<vertex_t>(value);
  return true;
}

}  // namespace

UpdateTrace UpdateTrace::from_stream(std::istream& in,
                                     const std::string& path) {
  UpdateTrace trace;
  std::string line;
  std::uint64_t line_no = 0;
  std::uint64_t offset = 0;       // byte offset of the current line's start
  bool have_batch = false;
  std::size_t ops = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::uint64_t line_offset = offset;
    offset += line.size() + 1;
    std::string text = line;
    const std::size_t hash = text.find('#');
    if (hash != std::string::npos) text.resize(hash);
    std::istringstream is(text);
    std::string keyword;
    if (!(is >> keyword)) continue;  // blank / comment-only line
    if (keyword == "batch") {
      std::string stamp;
      if (!(is >> stamp)) {
        format_fail(path, line_offset, line_no, "batch header wants an at_ms");
      }
      double at_ms = 0.0;
      try {
        std::size_t consumed = 0;
        at_ms = std::stod(stamp, &consumed);
        if (consumed != stamp.size()) throw std::invalid_argument(stamp);
      } catch (const std::exception&) {
        format_fail(path, line_offset, line_no,
                    "bad batch timestamp '" + stamp + "'");
      }
      if (at_ms < 0.0) {
        format_fail(path, line_offset, line_no,
                    "negative batch timestamp " + stamp);
      }
      std::string extra;
      if (is >> extra) {
        format_fail(path, line_offset, line_no,
                    "trailing token '" + extra + "' after batch header");
      }
      UpdateBatch batch;
      batch.at_ms = at_ms;
      trace.batches.push_back(std::move(batch));
      have_batch = true;
      continue;
    }
    if (keyword != "add" && keyword != "remove") {
      format_fail(path, line_offset, line_no,
                  "unknown op '" + keyword + "' (want batch, add, or remove)");
    }
    if (!have_batch) {
      format_fail(path, line_offset, line_no,
                  "op '" + keyword + "' before any batch header");
    }
    std::string src_tok, dst_tok;
    if (!(is >> src_tok >> dst_tok)) {
      format_fail(path, line_offset, line_no,
                  "truncated op: want `" + keyword + " <src> <dst>`");
    }
    EdgeUpdate op;
    op.op = keyword == "add" ? UpdateOp::kAdd : UpdateOp::kRemove;
    op.line = line_no;
    if (!parse_vertex(src_tok, &op.src) || !parse_vertex(dst_tok, &op.dst)) {
      format_fail(path, line_offset, line_no,
                  "bad endpoint in `" + keyword + " " + src_tok + " " +
                      dst_tok + "` (want non-negative vertex ids)");
    }
    std::string extra;
    if (is >> extra) {
      format_fail(path, line_offset, line_no,
                  "trailing token '" + extra + "' after op");
    }
    trace.batches.back().ops.push_back(op);
    ++ops;
  }
  std::stable_sort(trace.batches.begin(), trace.batches.end(),
                   [](const UpdateBatch& a, const UpdateBatch& b) {
                     return a.at_ms < b.at_ms;
                   });
  std::ostringstream os;
  os << "file " << path << " batches=" << trace.batches.size()
     << " ops=" << ops;
  trace.summary = os.str();
  return trace;
}

UpdateTrace UpdateTrace::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw GraphIoError(ErrorLocation{path, 0, 0},
                       "cannot open update trace for reading");
  }
  return from_stream(in, path);
}

void UpdateTrace::write(std::ostream& os) const {
  os << "# batch <at_ms> / add <src> <dst> / remove <src> <dst>  -- "
     << summary << '\n';
  for (const UpdateBatch& batch : batches) {
    os << "batch " << batch.at_ms << '\n';
    for (const EdgeUpdate& op : batch.ops) {
      os << to_string(op.op) << ' ' << op.src << ' ' << op.dst << '\n';
    }
  }
}

UpdateTrace UpdateTrace::random(const RandomUpdateParams& params,
                                const Csr& base) {
  UpdateTrace trace;
  SplitMix64 rng(mix64(params.seed ^ 0x5a95ull));
  const vertex_t n = base.num_vertices();
  // Working model of the evolving adjacency so removals always name edges
  // that exist when their batch applies (generated traces must build).
  std::vector<std::vector<vertex_t>> adj(n);
  for (vertex_t v = 0; v < n; ++v) {
    const auto nbrs = base.neighbors(v);
    adj[v].assign(nbrs.begin(), nbrs.end());
  }
  const auto erase_one = [&](vertex_t u, vertex_t v) {
    auto& list = adj[u];
    const auto it = std::find(list.begin(), list.end(), v);
    if (it != list.end()) list.erase(it);
  };
  for (unsigned b = 0; b < params.batches; ++b) {
    UpdateBatch batch;
    batch.at_ms = params.start_ms + params.interval_ms * b;
    for (unsigned i = 0; i < params.ops_per_batch && n > 0; ++i) {
      EdgeUpdate op;
      if (rng.next_double() < params.add_fraction) {
        op.op = UpdateOp::kAdd;
        op.src = static_cast<vertex_t>(rng.next_below(n));
        op.dst = static_cast<vertex_t>(rng.next_below(n));
        adj[op.src].push_back(op.dst);
        if (!base.directed() && op.src != op.dst) {
          adj[op.dst].push_back(op.src);
        }
      } else {
        // Bounded hunt for a vertex that still has out-edges; fall back to
        // an add when the graph has been stripped bare.
        vertex_t u = kInvalidVertex;
        for (unsigned attempt = 0; attempt < 64; ++attempt) {
          const auto candidate =
              static_cast<vertex_t>(rng.next_below(n));
          if (!adj[candidate].empty()) {
            u = candidate;
            break;
          }
        }
        if (u == kInvalidVertex) {
          op.op = UpdateOp::kAdd;
          op.src = static_cast<vertex_t>(rng.next_below(n));
          op.dst = static_cast<vertex_t>(rng.next_below(n));
          adj[op.src].push_back(op.dst);
          if (!base.directed() && op.src != op.dst) {
            adj[op.dst].push_back(op.src);
          }
        } else {
          op.op = UpdateOp::kRemove;
          op.src = u;
          op.dst = adj[u][rng.next_below(adj[u].size())];
          erase_one(op.src, op.dst);
          if (!base.directed() && op.src != op.dst) {
            erase_one(op.dst, op.src);
          }
        }
      }
      batch.ops.push_back(op);
    }
    trace.batches.push_back(std::move(batch));
  }
  std::ostringstream os;
  os << "random batches=" << params.batches
     << " ops=" << params.ops_per_batch << " add-frac=" << params.add_fraction
     << " seed=" << params.seed;
  trace.summary = os.str();
  return trace;
}

ApplyResult apply_updates(const Csr& base, const UpdateBatch& batch) {
  const vertex_t n = base.num_vertices();
  const std::string source = "<update-batch>";
  // Working adjacency for touched vertices only; untouched lists are copied
  // verbatim from the base at assembly time.
  std::map<vertex_t, std::vector<vertex_t>> touched_adj;
  const auto working = [&](vertex_t v) -> std::vector<vertex_t>& {
    const auto it = touched_adj.find(v);
    if (it != touched_adj.end()) return it->second;
    const auto nbrs = base.neighbors(v);
    return touched_adj.emplace(v, std::vector<vertex_t>(nbrs.begin(),
                                                        nbrs.end()))
        .first->second;
  };
  ApplyResult result;
  std::vector<vertex_t> touched;
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    const EdgeUpdate& op = batch.ops[i];
    if (op.src >= n || op.dst >= n) {
      format_fail(source, 0, op.line,
                  "op #" + std::to_string(i) + " (" +
                      std::string(to_string(op.op)) + " " +
                      std::to_string(op.src) + " " + std::to_string(op.dst) +
                      ") references a vertex outside [0, " +
                      std::to_string(n) + ")");
    }
    // Undirected bases hold both directions resident, so one logical op
    // lands as two directed edits.
    const bool both_directions = !base.directed() && op.src != op.dst;
    const std::pair<vertex_t, vertex_t> edits[2] = {
        {op.src, op.dst}, {op.dst, op.src}};
    const int edit_count = both_directions ? 2 : 1;
    for (int e = 0; e < edit_count; ++e) {
      const auto [u, v] = edits[e];
      std::vector<vertex_t>& list = working(u);
      if (op.op == UpdateOp::kAdd) {
        list.push_back(v);
        ++result.edges_added;
      } else {
        const auto it = std::find(list.begin(), list.end(), v);
        if (it == list.end()) {
          format_fail(source, 0, op.line,
                      "op #" + std::to_string(i) + " removes edge " +
                          std::to_string(u) + "->" + std::to_string(v) +
                          " which the snapshot does not contain");
        }
        list.erase(it);
        ++result.edges_removed;
      }
    }
    touched.push_back(op.src);
    touched.push_back(op.dst);
  }
  // Touched lists are re-sorted (build_csr always emits sorted lists);
  // untouched lists keep their base order bit-for-bit.
  for (auto& [v, list] : touched_adj) std::sort(list.begin(), list.end());
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  result.touched = std::move(touched);

  const edge_t new_edges =
      base.num_edges() + result.edges_added - result.edges_removed;
  std::vector<edge_t> row_offsets;
  row_offsets.reserve(static_cast<std::size_t>(n) + 1);
  std::vector<vertex_t> cols;
  cols.reserve(new_edges);
  row_offsets.push_back(0);
  for (vertex_t v = 0; v < n; ++v) {
    const auto it = touched_adj.find(v);
    if (it != touched_adj.end()) {
      cols.insert(cols.end(), it->second.begin(), it->second.end());
    } else {
      const auto nbrs = base.neighbors(v);
      cols.insert(cols.end(), nbrs.begin(), nbrs.end());
    }
    row_offsets.push_back(static_cast<edge_t>(cols.size()));
  }
  result.graph = Csr(n, std::move(row_offsets), std::move(cols),
                     base.directed());
  return result;
}

}  // namespace ent::graph
