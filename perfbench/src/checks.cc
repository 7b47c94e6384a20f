#include "checks.h"

#include <map>
#include <unordered_map>

namespace perfbench {

namespace {

std::string S(int64_t v) { return std::to_string(v); }

/// Indexes `rows` by column 0 and reports keys with more than one row.
std::unordered_map<int64_t, const Row*> UniqueByKey(
    const char* table, const std::vector<Row>& rows, Findings* findings) {
  std::unordered_map<int64_t, const Row*> by_key;
  by_key.reserve(rows.size());
  for (const Row& row : rows) {
    auto [it, fresh] = by_key.emplace(row.at(0), &row);
    if (!fresh) {
      findings->Add(std::string(table) + " key " + S(row[0]) +
                    " has more than one live version");
    }
  }
  return by_key;
}

}  // namespace

Findings CheckTpcc(const TpccShape& shape, const TpccState& state,
                   const std::vector<TpccAck>& acks) {
  Findings f;
  const auto warehouses = UniqueByKey("warehouse", state.warehouse, &f);
  const auto districts = UniqueByKey("district", state.district, &f);
  const auto customers = UniqueByKey("customer", state.customer, &f);
  UniqueByKey("stock", state.stock, &f);
  const auto orders = UniqueByKey("orders", state.orders, &f);
  const auto new_orders = UniqueByKey("new_order", state.new_order, &f);
  UniqueByKey("order_line", state.order_line, &f);
  const auto history = UniqueByKey("history", state.history, &f);

  if (static_cast<int64_t>(warehouses.size()) != shape.warehouses ||
      static_cast<int64_t>(districts.size()) !=
          shape.warehouses * shape.districts ||
      static_cast<int64_t>(customers.size()) !=
          shape.warehouses * shape.districts * shape.customers) {
    f.Add("warehouse/district/customer row counts differ from the load");
  }

  // Order lines per order: count and summed amount.
  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> lines;
  for (const Row& ol : state.order_line) {
    auto& [count, amount] = lines[TpccShape::LineOrder(ol.at(0))];
    ++count;
    amount += ol.at(3);
  }

  // Per warehouse: W_YTD against the districts' D_YTD.
  std::map<int64_t, int64_t> district_ytd;
  for (const Row& d : state.district) {
    district_ytd[d.at(0) / shape.districts] += d.at(2);
  }
  for (const auto& [w, row] : warehouses) {
    if (row->at(1) != district_ytd[w]) {
      f.Add("warehouse " + S(w) + ": W_YTD " + S(row->at(1)) +
            " != sum of D_YTD " + S(district_ytd[w]));
    }
  }

  // Per warehouse: balances + history - delivered credit = initial.
  std::map<int64_t, int64_t> money;
  for (const Row& c : state.customer) {
    money[shape.CustomerWarehouse(c.at(0))] += c.at(1);
  }
  for (const Row& h : state.history) {
    money[shape.CustomerWarehouse(h.at(1))] += h.at(2);
  }
  std::map<int64_t, int64_t> orders_in_district;
  for (const Row& o : state.orders) {
    const int64_t o_key = o.at(0);
    const int64_t d_key = TpccShape::OrderDistrict(o_key);
    if (TpccShape::OrderId(o_key) > shape.initial_orders) {
      ++orders_in_district[d_key];
    }
    const auto it = lines.find(o_key);
    const int64_t line_count = it == lines.end() ? 0 : it->second.first;
    if (o.at(2) < 5 || o.at(2) > 15 || line_count != o.at(2)) {
      f.Add("order " + S(o_key) + ": ol_cnt " + S(o.at(2)) + " with " +
            S(line_count) + " order lines");
    }
    if (o.at(3) != 0) {
      money[shape.CustomerWarehouse(o.at(1))] -=
          it == lines.end() ? 0 : it->second.second;
    }
    if ((o.at(3) == 0) != (new_orders.count(o_key) == 1)) {
      f.Add("order " + S(o_key) + ": carrier " + S(o.at(3)) +
            " disagrees with its new_order row");
    }
  }
  const int64_t initial_money =
      shape.districts * shape.customers * shape.initial_balance;
  for (int64_t w = 0; w < shape.warehouses; ++w) {
    if (money[w] != initial_money) {
      f.Add("warehouse " + S(w) + ": balances + history - deliveries = " +
            S(money[w]) + ", initial " + S(initial_money));
    }
  }
  for (const auto& [o_key, row] : new_orders) {
    if (orders.count(o_key) == 0) {
      f.Add("new_order " + S(o_key) + " has no order");
    }
  }

  // Per district: next_o_id advance = orders placed.
  for (const auto& [d_key, row] : districts) {
    const int64_t advance = row->at(1) - (shape.initial_orders + 1);
    const int64_t placed = orders_in_district[d_key];
    if (advance != placed) {
      f.Add("district " + S(d_key) + ": next_o_id advanced " + S(advance) +
            " but " + S(placed) + " orders exist");
    }
  }

  // Acknowledged transactions survive with their values.
  for (const TpccAck& ack : acks) {
    switch (ack.kind) {
      case TpccAck::kNewOrder: {
        const auto it = orders.find(ack.a);
        const auto li = lines.find(ack.a);
        if (it == orders.end() || it->second->at(1) != ack.b ||
            it->second->at(2) != ack.c || li == lines.end() ||
            li->second.second != ack.d) {
          f.Add("acknowledged NewOrder " + S(ack.a) +
                " missing or changed after restart");
        }
        break;
      }
      case TpccAck::kPayment: {
        const auto it = history.find(ack.a);
        if (it == history.end() || it->second->at(1) != ack.b ||
            it->second->at(2) != ack.c) {
          f.Add("acknowledged Payment " + S(ack.a) +
                " missing or changed after restart");
        }
        break;
      }
      case TpccAck::kDelivery: {
        const auto it = orders.find(ack.a);
        if (it == orders.end() || it->second->at(3) != ack.b) {
          f.Add("acknowledged Delivery of order " + S(ack.a) +
                " missing after restart");
        }
        break;
      }
      default:
        f.Add("unknown acknowledgement kind " + S(ack.kind));
    }
  }
  return f;
}

void CheckRangeScan(int64_t lo, int64_t hi, const std::vector<int64_t>& keys,
                    Findings* findings) {
  const int64_t want = hi - lo + 1;
  if (static_cast<int64_t>(keys.size()) != want) {
    findings->Add("range [" + S(lo) + "," + S(hi) + "] returned " +
                  S(static_cast<int64_t>(keys.size())) + " rows, want " +
                  S(want));
    return;
  }
  std::vector<bool> seen(static_cast<size_t>(want), false);
  for (int64_t k : keys) {
    if (k < lo || k > hi) {
      findings->Add("range [" + S(lo) + "," + S(hi) + "] returned key " +
                    S(k));
      return;
    }
    if (seen[static_cast<size_t>(k - lo)]) {
      findings->Add("range [" + S(lo) + "," + S(hi) + "] returned key " +
                    S(k) + " twice");
      return;
    }
    seen[static_cast<size_t>(k - lo)] = true;
  }
}

void CheckKvValues(const std::vector<KvExpect>& expect,
                   const std::vector<Row>& rows, Findings* findings) {
  std::vector<int> versions(expect.size(), 0);
  for (const Row& row : rows) {
    const int64_t k = row.at(0);
    if (k < 0 || k >= static_cast<int64_t>(expect.size())) {
      findings->Add("unexpected key " + S(k));
      continue;
    }
    ++versions[static_cast<size_t>(k)];
    const KvExpect& e = expect[static_cast<size_t>(k)];
    const int64_t v = row.at(1);
    if (v != e.acked && !(e.has_inflight && v == e.inflight)) {
      findings->Add("key " + S(k) + " holds " + S(v) + ", acknowledged " +
                    S(e.acked));
    }
  }
  for (size_t k = 0; k < versions.size(); ++k) {
    if (versions[k] != 1) {
      findings->Add("key " + S(static_cast<int64_t>(k)) + " has " +
                    S(versions[k]) + " live versions");
    }
  }
}

}  // namespace perfbench
